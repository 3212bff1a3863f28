//! The layer-by-layer replay of the traced run.
//!
//! The real path hides its layers inside `Nic`. To time them, the replay
//! drives the same seeded traffic one frame at a time through each
//! layer's public functions, in the order `TcTransmitter`, `TcReceiver`
//! and `Nic::receive_cell` call them, with a span around every layer.
//! Within a frame the calls of one layer run back to back (all cells
//! scrambled, then all queued; all headers decoded, then all counted,
//! then all looked up, then all reassembled), so each layer costs two
//! clock reads per frame rather than two per cell. Each layer keeps its
//! own state, so the order across layers within a frame changes no
//! output. Two checks show the replay did the real path's work: every
//! transmit frame must hash equal to the frame the real `Nic` sent, and
//! the delivered SDUs must give the same digest.

use crate::nicpath::{
    clock, injector, load_mux_sdu, nic_config, MuxSource, Step, RATE, SYNC_FRAMES,
};
use crate::spans::{Layer, Probe, Recorder};
use crate::stats::hash_bytes;
use crate::traffic::{vc, NicWorkload, Traffic, Verifier};
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_aal::{ReassembledSdu, ReassemblyError, ReassemblyFailure};
use hni_atm::{
    Cell, CellRef, CellSlab, Delineator, Descrambler, HeaderRepr, Pti, Scrambler, CELL_SIZE,
    PAYLOAD_SIZE,
};
use hni_core::{Cam, CamResult};
use hni_sim::link::apply_bit_errors;
use hni_sim::{FaultInjector, Time};
use hni_sonet::{FrameAligner, FrameBuilder, FrameParser};
use hni_telemetry::VcMetrics;
use std::collections::VecDeque;

/// What one replayed epoch did.
#[derive(Clone, Debug, Default)]
pub struct ReplayEpoch {
    /// Data cells queued for the line.
    pub data_cells: u64,
    /// Frames whose hash differed from the real path's.
    pub frame_mismatches: u64,
    /// Frames compared.
    pub frames: u64,
    /// SDUs delivered and verified.
    pub delivered: u64,
    /// SDUs that failed a check.
    pub bad: u64,
    /// Digest of what was delivered, in order.
    pub digest: u64,
    /// Frames dropped for CPCS CRC-32 mismatch.
    pub crc_failures: u64,
    /// Frames abandoned by the reassembly timer.
    pub timeouts: u64,
    /// Frames dropped for any other reassembly error.
    pub other_failures: u64,
    /// Cells for VCs with no CAM entry.
    pub unknown_vc_cells: u64,
    /// SONET frames that failed overhead checks.
    pub frame_errors: u64,
}

/// Transmit and receive state of both ends, built from the layers.
pub struct Replay<'a> {
    w: &'a NicWorkload,
    t: &'a Traffic,
    seed: u64,
    // Transmit side (A).
    slab: CellSlab,
    refs: Vec<CellRef>,
    faulted: Vec<Cell>,
    staged: Vec<[u8; CELL_SIZE]>,
    scrambler: Scrambler,
    queue: VecDeque<u8>,
    consumed: u64,
    builder: FrameBuilder,
    // Receive side (B).
    aligner: FrameAligner,
    parser: FrameParser,
    delineator: Delineator,
    descrambler: Descrambler,
    cam: Cam,
    metrics: VcMetrics,
    reasm: Aal5Reassembler,
    frames: Vec<Vec<u8>>,
    cells: Vec<Cell>,
    headers: Vec<Option<HeaderRepr>>,
    hits: Vec<bool>,
    outcomes: Vec<Result<ReassembledSdu, ReassemblyFailure>>,
}

impl<'a> Replay<'a> {
    /// Both ends in the state `RealPath::setup` leaves them in.
    pub fn setup(w: &'a NicWorkload, t: &'a Traffic, seed: u64) -> Self {
        let cfg = nic_config(w);
        let mut cam = Cam::new(cfg.cam_capacity);
        for i in 0..w.n_vcs {
            let index = u16::try_from(i).expect("connection index fits the CAM");
            assert!(cam.insert(vc(i), index), "CAM sized for every VC");
        }
        let mut r = Replay {
            w,
            t,
            seed,
            slab: CellSlab::new(),
            refs: Vec::new(),
            faulted: Vec::new(),
            staged: Vec::new(),
            scrambler: Scrambler::new(),
            queue: VecDeque::new(),
            consumed: 0,
            builder: FrameBuilder::new(RATE),
            aligner: FrameAligner::new(RATE),
            parser: FrameParser::new(RATE),
            delineator: Delineator::new().with_idle_cells(),
            descrambler: Descrambler::new(),
            cam,
            metrics: VcMetrics::new(),
            reasm: Aal5Reassembler::new(cfg.max_sdu, cfg.reassembly_timeout),
            frames: Vec::new(),
            cells: Vec::new(),
            headers: Vec::new(),
            hits: Vec::new(),
            outcomes: Vec::new(),
        };
        let mut sink = Verifier::new(0);
        let mut out = ReplayEpoch::default();
        for tick in 0..SYNC_FRAMES {
            let frame = r.pull_frame(&mut crate::spans::NoProbe);
            r.receive(
                &frame,
                clock(tick),
                &mut sink,
                &mut out,
                &mut crate::spans::NoProbe,
            );
        }
        r
    }

    /// The CAM (for its probe statistics).
    pub fn cam(&self) -> &Cam {
        &self.cam
    }

    /// Cells the receive delineator discarded for bad headers so far.
    pub fn hec_discards(&self) -> u64 {
        self.delineator.discarded_in_sync()
    }

    /// Repeat one recorded epoch of the real path.
    pub fn run_epoch(&mut self, steps: &[Step], rec: &mut Recorder) -> ReplayEpoch {
        let n = self.t.sdus.len();
        let mut verifier = Verifier::new(n);
        let mut out = ReplayEpoch::default();
        let mut inj = injector(self.w, self.seed);
        let mut mux = self.w.mux.map(|m| MuxSource::new(m.in_flight));
        let mut next = 0usize;
        for step in steps {
            let m_frame = rec.mark();
            out.data_cells += match (&mut mux, &mut inj) {
                (Some(src), Some(inj)) => self.offer_cells(step.offered, src, inj, rec),
                _ => self.offer_sdus(step.offered, &mut next, rec),
            };
            self.queue_staged(rec);
            let frame = self.pull_frame(rec);
            out.frames += 1;
            if hash_bytes(&frame) != step.frame_hash {
                out.frame_mismatches += 1;
            }
            self.receive(&frame, step.now, &mut verifier, &mut out, rec);
            rec.frame(step.now.0 / 125_000_000, m_frame);
        }
        out.delivered = verifier.delivered;
        out.bad = verifier.bad;
        out.digest = verifier.digest;
        out
    }

    /// `Nic::send` for `count` SDUs: segment each through the slab,
    /// then scramble the cells as `TcTransmitter::push_cell` does.
    fn offer_sdus(&mut self, count: u32, next: &mut usize, rec: &mut Recorder) -> u64 {
        for _ in 0..count {
            let seq = *next;
            *next += 1;
            let m = rec.mark();
            let sdu = self.t.sdu_bytes(seq);
            rec.stop(Layer::AppBuild, m);
            let m = rec.mark();
            let on = vc(self.t.sdus[seq].vc as usize);
            aal5::segment_into(on, &sdu, 0, &mut self.slab, &mut self.refs);
            rec.stop(Layer::AalSegment, m);
        }
        let cells = self.refs.len() as u64;
        let m = rec.mark();
        for &r in &self.refs {
            let mut bytes = *self.slab.get(r).as_bytes();
            self.scrambler.scramble(&mut bytes[5..]);
            self.staged.push(bytes);
        }
        rec.stop(Layer::AtmScramble, m);
        let m = rec.mark();
        self.slab.free_all(&self.refs);
        self.refs.clear();
        rec.stop(Layer::AalSegment, m);
        cells
    }

    /// `Nic::inject_cell_faulted` for `count` interleaved cells.
    fn offer_cells(
        &mut self,
        count: u32,
        src: &mut MuxSource,
        inj: &mut FaultInjector,
        rec: &mut Recorder,
    ) -> u64 {
        let n = self.t.sdus.len();
        for _ in 0..count {
            while let Some(seq) = src.wants_sdu(n) {
                load_mux_sdu(self.t, seq, src, rec);
            }
            // The traffic generator and the line's fault plan.
            let m = rec.mark();
            let cell = src.next_cell().expect("the real path offered this cell");
            let fate = inj.fate((CELL_SIZE * 8) as u64);
            if !fate.lost {
                if fate.flipped_bits.is_empty() {
                    self.faulted.push(cell.clone());
                } else {
                    let mut bytes = *cell.as_bytes();
                    apply_bit_errors(&mut bytes, &fate.flipped_bits);
                    self.faulted.push(Cell::from_bytes(bytes));
                }
                if fate.duplicated {
                    self.faulted.push(cell);
                }
            }
            rec.stop(Layer::AppBuild, m);
        }
        let cells = self.faulted.len() as u64;
        let m = rec.mark();
        for cell in self.faulted.drain(..) {
            let mut bytes = *cell.as_bytes();
            self.scrambler.scramble(&mut bytes[5..]);
            self.staged.push(bytes);
        }
        rec.stop(Layer::AtmScramble, m);
        cells
    }

    /// Move scrambled cells into the transmit octet queue.
    fn queue_staged<P: Probe>(&mut self, probe: &mut P) {
        let m = probe.mark();
        for c in self.staged.drain(..) {
            self.queue.extend(c);
        }
        probe.stop(Layer::SonetTcQueue, m);
    }

    /// `TcTransmitter::pull_frame`: idle fill, drain one frame's payload,
    /// H4 offset, frame build.
    fn pull_frame<P: Probe>(&mut self, probe: &mut P) -> Vec<u8> {
        let need = RATE.payload_octets_per_frame();
        if self.queue.len() < need {
            let idles = (need - self.queue.len()).div_ceil(CELL_SIZE);
            let m = probe.mark();
            for _ in 0..idles {
                let mut bytes = *Cell::idle().as_bytes();
                self.scrambler.scramble(&mut bytes[5..]);
                self.staged.push(bytes);
            }
            probe.stop(Layer::AtmScramble, m);
            self.queue_staged(probe);
        }
        let m = probe.mark();
        let payload: Vec<u8> = self.queue.drain(..need).collect();
        self.consumed += need as u64;
        let phase = (self.consumed % CELL_SIZE as u64) as u8;
        let h4 = if phase == 0 {
            0
        } else {
            CELL_SIZE as u8 - phase
        };
        probe.stop(Layer::SonetTcQueue, m);
        let m = probe.mark();
        let frame = self.builder.build(&payload, h4);
        probe.stop(Layer::SonetFrameBuild, m);
        frame
    }

    /// `TcReceiver::push_bytes`, then `Nic::receive_cell` for each cell,
    /// then the host driver's reassembly expiry, then the application.
    fn receive<P: Probe>(
        &mut self,
        octets: &[u8],
        now: Time,
        verifier: &mut Verifier,
        out: &mut ReplayEpoch,
        probe: &mut P,
    ) {
        let m = probe.mark();
        self.frames.clear();
        self.aligner.push(octets, &mut self.frames);
        probe.stop(Layer::SonetAlign, m);
        self.cells.clear();
        for frame in &self.frames {
            let m = probe.mark();
            let parsed = self.parser.parse(frame);
            probe.stop(Layer::SonetFrameParse, m);
            match parsed {
                Ok(parsed) => {
                    let m = probe.mark();
                    self.delineator.push_slice(&parsed.payload, &mut self.cells);
                    probe.stop(Layer::AtmDelineate, m);
                }
                Err(_) => out.frame_errors += 1,
            }
        }
        let m = probe.mark();
        for cell in &mut self.cells {
            let mut payload = [0u8; PAYLOAD_SIZE];
            payload.copy_from_slice(cell.payload());
            self.descrambler.descramble(&mut payload);
            cell.payload_mut().copy_from_slice(&payload);
        }
        self.cells.retain(|c| !(c.is_idle() || c.is_unassigned()));
        probe.stop(Layer::AtmDescramble, m);

        let m = probe.mark();
        self.headers.clear();
        self.headers
            .extend(self.cells.iter().map(|c| c.header().ok()));
        probe.stop(Layer::AtmHeader, m);
        let m = probe.mark();
        for h in self.headers.iter().flatten() {
            self.metrics.record_cell(h.vc().cam_key(), CELL_SIZE as u64);
        }
        probe.stop(Layer::TelemetryVcMetrics, m);
        let m = probe.mark();
        self.hits.clear();
        for h in &self.headers {
            let hit = h.is_some_and(|h| !matches!(self.cam.lookup(h.vc()), CamResult::Miss));
            self.hits.push(hit);
        }
        probe.stop(Layer::CoreCamLookup, m);
        out.unknown_vc_cells += self
            .headers
            .iter()
            .zip(&self.hits)
            .filter(|(h, hit)| h.is_some() && !**hit)
            .count() as u64;
        let m = probe.mark();
        for ((cell, h), &hit) in self.cells.iter().zip(&self.headers).zip(&self.hits) {
            let oam = h.is_some_and(|h| matches!(h.pti, Pti::OamEndToEnd | Pti::OamSegment));
            if hit && !oam {
                if let Some(outcome) = self.reasm.push(cell, now) {
                    self.outcomes.push(outcome);
                }
            }
        }
        probe.stop(Layer::AalReassemble, m);
        let m = probe.mark();
        let expired = self.reasm.expire(now);
        self.outcomes.extend(expired.into_iter().map(Err));
        probe.stop(Layer::AalExpire, m);

        let m = probe.mark();
        for outcome in self.outcomes.drain(..) {
            match outcome {
                Ok(sdu) => {
                    verifier.check(self.t, sdu.vc, &sdu.data);
                    self.reasm.recycle(sdu.data);
                }
                Err(f) => match f.error {
                    ReassemblyError::Crc32 => out.crc_failures += 1,
                    ReassemblyError::Timeout => out.timeouts += 1,
                    _ => out.other_failures += 1,
                },
            }
        }
        probe.stop(Layer::AppVerify, m);
    }
}
