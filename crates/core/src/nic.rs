//! The functional (byte-exact) host interface.
//!
//! Where [`crate::txsim`]/[`crate::rxsim`] answer "how fast", this
//! module answers "exactly which bytes": real AAL segmentation and
//! reassembly, real 53-octet cells, real SONET framing with scrambling
//! and parity — the full data path a packet crosses between host memory
//! and the optical line, with every error-detection layer live.
//!
//! The `Nic` owns its reassembly timer: every line delivery ends with
//! one [`Nic::expire`] scan at the delivery's clock, so a stalled
//! chain's timeout surfaces at the first delivery past it without the
//! host driving a clock of its own.
//!
//! Faults reach the bytes through a [`FaultInjector`]: per cell at the
//! faulted ingress ([`Nic::inject_cell_faulted`]), or as one fate over a
//! whole SONET frame, whose flipped bits the caller applies on the line
//! with [`hni_sim::link::apply_bit_errors`].
//!
//! Two `Nic`s connected back-to-back form the canonical end-to-end setup
//! used by the integration tests and the runnable examples:
//!
//! ```
//! use hni_core::{Nic, NicConfig, NicEvent};
//! use hni_atm::VcId;
//! use hni_sim::Time;
//! use hni_sonet::LineRate;
//!
//! let cfg = NicConfig::paper(LineRate::Oc3);
//! let mut a = Nic::new(cfg.clone());
//! let mut b = Nic::new(cfg);
//! let vc = VcId::new(0, 42);
//! a.open_vc(vc).unwrap();
//! b.open_vc(vc).unwrap();
//!
//! // Let b's frame aligner and cell delineator lock onto a's signal
//! // (a real receiver is in sync long before traffic starts).
//! for _ in 0..12 {
//!     let idle_frame = a.frame_tick();
//!     b.receive_line_octets(&idle_frame, Time::ZERO);
//! }
//!
//! a.send(vc, b"hello down the fibre".to_vec(), Time::ZERO).unwrap();
//! // Move SONET frames from a to b until the packet surfaces.
//! let mut got = None;
//! for _ in 0..20 {
//!     let frame = a.frame_tick();
//!     b.receive_line_octets(&frame, Time::ZERO);
//!     if let Some(NicEvent::PacketReceived { data, .. }) = b.poll() {
//!         got = Some(data);
//!         break;
//!     }
//! }
//! assert_eq!(got.as_deref(), Some(&b"hello down the fibre"[..]));
//! ```

use crate::cam::{Cam, CamResult};
use crate::config::NicConfig;
use hni_aal::aal34::{Aal34Reassembler, Aal34Segmenter};
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_aal::{AalType, ReassemblyFailure};
use hni_atm::{Cell, CellRef, CellSlab, VcId, CELL_SIZE};
use hni_sim::link::apply_bit_errors;
use hni_sim::{Duration, FaultInjector, Time, UnitFate};
use hni_sonet::{TcReceiver, TcTransmitter};
use std::collections::VecDeque;

/// What the interface reports up to the host driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NicEvent {
    /// A complete, validated SDU arrived.
    PacketReceived {
        /// Connection it arrived on.
        vc: VcId,
        /// AAL3/4 MID (0 for AAL5).
        mid: u16,
        /// The SDU.
        data: Vec<u8>,
        /// AAL5 user-to-user octet (0 for AAL3/4).
        uu: u8,
    },
    /// A frame under reassembly was abandoned.
    ReceiveError(ReassemblyFailure),
    /// A cell arrived for a VC with no CAM entry and was dropped.
    UnknownVc(VcId),
    /// A far-end reply to an OAM F5 loopback we sent arrived on `vc`
    /// with the correlation tag we chose.
    OamLoopbackReply {
        /// The verified connection.
        vc: VcId,
        /// The correlation tag from the request.
        tag: u32,
    },
}

/// Errors the host-facing API can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicError {
    /// The VC has no CAM entry (open it first).
    VcNotOpen,
    /// The CAM is full.
    CamFull,
    /// SDU exceeds the configured maximum.
    SduTooLarge,
}

impl core::fmt::Display for NicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NicError::VcNotOpen => write!(f, "VC not open"),
            NicError::CamFull => write!(f, "connection table full"),
            NicError::SduTooLarge => write!(f, "SDU exceeds maximum"),
        }
    }
}

impl std::error::Error for NicError {}

/// The functional host-network interface.
pub struct Nic {
    cfg: NicConfig,
    cam: Cam,
    next_conn_index: u16,
    // Transmit side.
    tc_tx: TcTransmitter,
    seg34: Aal34Segmenter,
    // Receive side.
    tc_rx: TcReceiver,
    reasm5: Aal5Reassembler,
    reasm34: Aal34Reassembler,
    events: VecDeque<NicEvent>,
    // Transmit-side cell arena + handle scratch: segmentation goes
    // through the slab, so steady-state sends allocate nothing per cell.
    tx_slab: CellSlab,
    tx_refs: Vec<CellRef>,
    // Receive-side scratch for cells emerging from the TC receiver,
    // reused across line deliveries.
    rx_cells: Vec<Cell>,
    // Counters.
    sdus_sent: u64,
    sdus_received: u64,
    unknown_vc_cells: u64,
}

impl Nic {
    /// Build an interface per `cfg`.
    ///
    /// # Panics
    /// If `cfg.reassembly_timeout` is zero: every delivery ends with an
    /// expiry scan, so a zero timeout would abandon every chain that
    /// spans two deliveries.
    pub fn new(cfg: NicConfig) -> Self {
        assert!(
            cfg.reassembly_timeout > Duration::ZERO,
            "reassembly timeout must be positive"
        );
        Nic {
            cam: Cam::new(cfg.cam_capacity),
            next_conn_index: 0,
            tc_tx: TcTransmitter::new(cfg.rate),
            seg34: Aal34Segmenter::new(),
            tc_rx: TcReceiver::new(cfg.rate),
            reasm5: Aal5Reassembler::new(cfg.max_sdu, cfg.reassembly_timeout),
            reasm34: Aal34Reassembler::new(cfg.max_sdu, cfg.reassembly_timeout),
            events: VecDeque::new(),
            tx_slab: CellSlab::new(),
            tx_refs: Vec::new(),
            rx_cells: Vec::new(),
            sdus_sent: 0,
            sdus_received: 0,
            unknown_vc_cells: 0,
            cfg,
        }
    }

    /// Open a connection: installs the CAM entry both directions use.
    pub fn open_vc(&mut self, vc: VcId) -> Result<(), NicError> {
        let idx = self.next_conn_index;
        if self.cam.insert(vc, idx) {
            self.next_conn_index = self.next_conn_index.wrapping_add(1);
            Ok(())
        } else {
            Err(NicError::CamFull)
        }
    }

    /// Segment and queue an SDU for transmission on `vc`. Returns the
    /// number of cells queued.
    ///
    /// AAL3/4 connections use MID 0 by default; see
    /// [`Nic::send_with_mid`].
    pub fn send(&mut self, vc: VcId, sdu: Vec<u8>, now: Time) -> Result<usize, NicError> {
        self.send_with_mid(vc, 0, sdu, now)
    }

    /// Segment and queue an SDU with an explicit AAL3/4 MID. Returns the
    /// number of cells queued.
    pub fn send_with_mid(
        &mut self,
        vc: VcId,
        mid: u16,
        sdu: Vec<u8>,
        _now: Time,
    ) -> Result<usize, NicError> {
        if matches!(self.cam.lookup(vc), CamResult::Miss) {
            return Err(NicError::VcNotOpen);
        }
        if sdu.len() > self.cfg.max_sdu {
            return Err(NicError::SduTooLarge);
        }
        // Segment through the cell slab: byte-identical to the Vec path
        // (same segmentation core) but allocation-free once warmed up.
        let mut refs = std::mem::take(&mut self.tx_refs);
        refs.clear();
        match self.cfg.aal {
            AalType::Aal5 => aal5::segment_into(vc, &sdu, 0, &mut self.tx_slab, &mut refs),
            AalType::Aal34 => self
                .seg34
                .segment_into(vc, mid, &sdu, &mut self.tx_slab, &mut refs),
        }
        for &r in &refs {
            self.tc_tx.push_cell(self.tx_slab.get(r));
        }
        self.tx_slab.free_all(&refs);
        let cells = refs.len();
        self.tx_refs = refs;
        self.sdus_sent += 1;
        Ok(cells)
    }

    /// Produce the next 125 µs SONET frame for the line (call every
    /// frame time; idle cells fill the slack).
    pub fn frame_tick(&mut self) -> Vec<u8> {
        self.tc_tx.pull_frame()
    }

    /// Send an OAM F5 end-to-end loopback request on `vc`. The far end
    /// echoes it; the reply surfaces as [`NicEvent::OamLoopbackReply`]
    /// with the same `tag` — the era's standard connectivity check on a
    /// PVC (no signalling channel to ask).
    pub fn send_oam_loopback(&mut self, vc: VcId, tag: u32) -> Result<(), NicError> {
        if matches!(self.cam.lookup(vc), CamResult::Miss) {
            return Err(NicError::VcNotOpen);
        }
        let cell = hni_atm::OamCell::loopback_request(tag).emit(vc);
        self.tc_tx.push_cell(&cell);
        Ok(())
    }

    /// Handle a received OAM F5 cell: answer loopback requests, surface
    /// loopback replies. Cells failing the OAM CRC-10 or carrying other
    /// functions (AIS/RDI/CC) are counted at the codec and dropped —
    /// alarm *policy* belongs to the transmission plant, not the NIC.
    fn handle_oam(&mut self, vc: VcId, cell: &Cell) {
        let Ok(oam) = hni_atm::OamCell::parse(cell) else {
            return; // damaged or unknown OAM cell
        };
        if oam.function != hni_atm::OamFunction::Loopback {
            return;
        }
        if oam.loopback_indication {
            let reply = oam.loopback_reply().emit(vc);
            self.tc_tx.push_cell(&reply);
        } else {
            self.events
                .push_back(NicEvent::OamLoopbackReply { vc, tag: oam.tag });
        }
    }

    /// Inject a pre-built cell directly into the transmit convergence
    /// queue, bypassing the AAL. Exists for fault-injection experiments
    /// (drop/corrupt individual cells of a frame and observe the
    /// receiver); normal traffic goes through [`Nic::send`].
    pub fn inject_cell(&mut self, cell: &Cell) {
        self.tc_tx.push_cell(cell);
    }

    /// [`Nic::inject_cell`] through a [`FaultInjector`]: the injector
    /// decides the cell's fate (loss, payload damage, duplication) and
    /// the survivors — damaged in place when the plan says so — enter
    /// the transmit convergence queue. A duplicate is the cell as
    /// offered: the fate's bit flips damage the first copy only. Returns
    /// the fate so callers can reconcile what they offered against what
    /// went on the wire.
    /// Reordering displacement is ignored at this granularity (the TC
    /// queue is strictly FIFO); use the timing simulations to study it.
    pub fn inject_cell_faulted(&mut self, cell: &Cell, inj: &mut FaultInjector) -> UnitFate {
        let fate = inj.fate((CELL_SIZE * 8) as u64);
        if fate.lost {
            return fate;
        }
        if fate.flipped_bits.is_empty() {
            self.inject_cell(cell);
        } else {
            let mut bytes = *cell.as_bytes();
            apply_bit_errors(&mut bytes, &fate.flipped_bits);
            self.inject_cell(&Cell::from_bytes(bytes));
        }
        if fate.duplicated {
            self.inject_cell(cell);
        }
        fate
    }

    /// Cells waiting for payload slots on the transmit side.
    pub fn tx_backlog_cells(&self) -> usize {
        self.tc_tx.backlog_cells()
    }

    /// Feed octets received from the line; events become available via
    /// [`Nic::poll`]. Ends with the reassembly-expiry scan at `now`.
    pub fn receive_line_octets(&mut self, octets: &[u8], now: Time) {
        // The cell scratch is a reused field: no per-delivery allocation
        // once the working set is warm. Taken out of `self` so the
        // per-cell handler can borrow the rest of the interface.
        let mut cells = std::mem::take(&mut self.rx_cells);
        cells.clear();
        self.tc_rx.push_bytes(octets, &mut cells);
        for cell in &cells {
            self.receive_cell(cell, now);
        }
        self.rx_cells = cells;
        self.expire(now);
    }

    /// The per-cell receive body behind [`Nic::receive_line_octets`]:
    /// CAM lookup, OAM handling, reassembly, event generation.
    fn receive_cell(&mut self, cell: &Cell, now: Time) {
        let Ok(header) = cell.header() else { return };
        let vc = header.vc();
        if matches!(self.cam.lookup(vc), CamResult::Miss) {
            self.unknown_vc_cells += 1;
            self.events.push_back(NicEvent::UnknownVc(vc));
            return;
        }
        if matches!(
            header.pti,
            hni_atm::Pti::OamEndToEnd | hni_atm::Pti::OamSegment
        ) {
            self.handle_oam(vc, cell);
            return;
        }
        let outcome = match self.cfg.aal {
            AalType::Aal5 => self.reasm5.push(cell, now),
            AalType::Aal34 => self.reasm34.push(cell, now),
        };
        match outcome {
            None => {}
            Some(Ok(sdu)) => {
                self.sdus_received += 1;
                self.events.push_back(NicEvent::PacketReceived {
                    vc: sdu.vc,
                    mid: sdu.mid,
                    data: sdu.data,
                    uu: sdu.user_to_user,
                });
            }
            Some(Err(failure)) => {
                self.events.push_back(NicEvent::ReceiveError(failure));
            }
        }
    }

    /// Enforce the reassembly timeout at `now`. Every line delivery
    /// already runs it; call it directly only to advance an idle clock.
    /// Scans only the configured AAL's reassembler: the receive path
    /// feeds no other, so no other can hold a partial frame.
    pub fn expire(&mut self, now: Time) {
        let expired = match self.cfg.aal {
            AalType::Aal5 => self.reasm5.expire(now),
            AalType::Aal34 => self.reasm34.expire(now),
        };
        self.events
            .extend(expired.into_iter().map(NicEvent::ReceiveError));
    }

    /// Next pending event, if any.
    pub fn poll(&mut self) -> Option<NicEvent> {
        self.events.pop_front()
    }

    /// Hand a delivered SDU buffer (from [`NicEvent::PacketReceived`])
    /// back to the receive path for reuse. Optional; closing the loop
    /// makes the steady-state receive path allocation-free per frame.
    pub fn recycle_sdu_buffer(&mut self, buf: Vec<u8>) {
        self.reasm5.recycle(buf);
    }

    /// SDUs accepted for transmission.
    pub fn sdus_sent(&self) -> u64 {
        self.sdus_sent
    }
    /// SDUs delivered to the host.
    pub fn sdus_received(&self) -> u64 {
        self.sdus_received
    }
    /// Cells dropped for lacking a CAM entry.
    pub fn unknown_vc_cells(&self) -> u64 {
        self.unknown_vc_cells
    }
    /// Receive-side TC statistics.
    pub fn tc_receiver(&self) -> &TcReceiver {
        &self.tc_rx
    }
    /// Transmit-side TC statistics.
    pub fn tc_transmitter(&self) -> &TcTransmitter {
        &self.tc_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_sonet::LineRate;

    fn pair(aal: AalType) -> (Nic, Nic, VcId) {
        let mut cfg = NicConfig::paper(LineRate::Oc3);
        cfg.aal = aal;
        let a = Nic::new(cfg.clone());
        let b = Nic::new(cfg);
        (a, b, VcId::new(0, 77))
    }

    fn pump(a: &mut Nic, b: &mut Nic, frames: usize) -> Vec<NicEvent> {
        let mut evs = Vec::new();
        for _ in 0..frames {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
            while let Some(e) = b.poll() {
                evs.push(e);
            }
        }
        evs
    }

    #[test]
    fn end_to_end_aal5() {
        let (mut a, mut b, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        // Warm up delineation with idle frames.
        pump(&mut a, &mut b, 12);
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        a.send(vc, payload.clone(), Time::ZERO).unwrap();
        let evs = pump(&mut a, &mut b, 10);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NicEvent::PacketReceived { vc: v, data, .. } => {
                assert_eq!(*v, vc);
                assert_eq!(*data, payload);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_to_end_aal34_with_mids() {
        let (mut a, mut b, vc) = pair(AalType::Aal34);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        pump(&mut a, &mut b, 12);
        a.send_with_mid(vc, 3, vec![0xAA; 500], Time::ZERO).unwrap();
        a.send_with_mid(vc, 9, vec![0xBB; 500], Time::ZERO).unwrap();
        let evs = pump(&mut a, &mut b, 10);
        assert_eq!(evs.len(), 2);
        let mids: Vec<u16> = evs
            .iter()
            .map(|e| match e {
                NicEvent::PacketReceived { mid, .. } => *mid,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(mids.contains(&3) && mids.contains(&9));
    }

    #[test]
    fn send_requires_open_vc() {
        let (mut a, _, vc) = pair(AalType::Aal5);
        assert_eq!(a.send(vc, vec![1], Time::ZERO), Err(NicError::VcNotOpen));
        a.open_vc(vc).unwrap();
        assert!(a.send(vc, vec![1], Time::ZERO).is_ok());
    }

    #[test]
    fn oversize_sdu_rejected() {
        let (mut a, _, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        assert_eq!(
            a.send(vc, vec![0; 70_000], Time::ZERO),
            Err(NicError::SduTooLarge)
        );
    }

    #[test]
    fn unknown_vc_cells_dropped_and_reported() {
        let (mut a, mut b, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        // b never opens the VC.
        pump(&mut a, &mut b, 12);
        a.send(vc, vec![1, 2, 3], Time::ZERO).unwrap();
        let evs = pump(&mut a, &mut b, 5);
        assert!(evs
            .iter()
            .all(|e| matches!(e, NicEvent::UnknownVc(v) if *v == vc)));
        assert!(b.unknown_vc_cells() > 0);
        assert_eq!(b.sdus_received(), 0);
    }

    #[test]
    fn many_packets_many_vcs() {
        let (mut a, mut b, _) = pair(AalType::Aal5);
        let vcs: Vec<VcId> = (0..8).map(|i| VcId::new(0, 100 + i)).collect();
        for &vc in &vcs {
            a.open_vc(vc).unwrap();
            b.open_vc(vc).unwrap();
        }
        pump(&mut a, &mut b, 12);
        for (i, &vc) in vcs.iter().enumerate() {
            a.send(vc, vec![i as u8; 300 + i * 17], Time::ZERO).unwrap();
        }
        let evs = pump(&mut a, &mut b, 10);
        assert_eq!(evs.len(), 8);
        for e in &evs {
            match e {
                NicEvent::PacketReceived { vc, data, .. } => {
                    let i = (vc.vci - 100) as usize;
                    assert_eq!(data.len(), 300 + i * 17);
                    assert!(data.iter().all(|&x| x == i as u8));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn expire_surfaces_timeouts() {
        let (mut a, mut b, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        pump(&mut a, &mut b, 12);
        // Send a large SDU but only deliver its first frame's worth of
        // cells, then let the timeout fire.
        a.send(vc, vec![7; 40_000], Time::ZERO).unwrap();
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        b.expire(Time::from_ms(100));
        let mut saw_timeout = false;
        while let Some(e) = b.poll() {
            if let NicEvent::ReceiveError(f) = e {
                assert_eq!(f.error, hni_aal::ReassemblyError::Timeout);
                saw_timeout = true;
            }
        }
        assert!(saw_timeout);
    }

    #[test]
    #[should_panic(expected = "reassembly timeout must be positive")]
    fn zero_reassembly_timeout_is_rejected() {
        Nic::new(NicConfig {
            reassembly_timeout: Duration::ZERO,
            ..NicConfig::paper(LineRate::Oc3)
        });
    }

    #[test]
    fn stalled_chain_times_out_at_the_first_delivery_past_the_timeout() {
        let (mut a, mut b, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        pump(&mut a, &mut b, 12);
        // The first frame's worth of a large SDU arrives at 0; the line
        // loses the rest.
        a.send(vc, vec![3; 40_000], Time::ZERO).unwrap();
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        while a.tx_backlog_cells() > 0 {
            let _lost = a.frame_tick();
        }
        // Idle frames every 125 µs: the chain is abandoned once more than
        // the timeout has passed, so at the first delivery past it.
        let timeout = NicConfig::paper(LineRate::Oc3).reassembly_timeout;
        let frame = hni_sim::Duration::from_us(125);
        let mut surfaced = None;
        for i in 1..=2 * timeout.as_ps() / frame.as_ps() {
            let now = Time::ZERO + frame.times(i);
            let f = a.frame_tick();
            b.receive_line_octets(&f, now);
            if let Some(e) = b.poll() {
                match e {
                    NicEvent::ReceiveError(f) => {
                        assert_eq!(f.error, hni_aal::ReassemblyError::Timeout)
                    }
                    other => panic!("unexpected {other:?}"),
                }
                surfaced = Some(now);
                break;
            }
        }
        assert_eq!(surfaced, Some(Time::ZERO + timeout + frame));
    }

    #[test]
    fn aal34_idle_chain_expires_without_explicit_clock() {
        let (mut a, mut b, vc) = pair(AalType::Aal34);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        pump(&mut a, &mut b, 12);
        // A large MID-tagged SDU: deliver only its first frame's worth
        // of cells, then lose the rest on the "line" — a stalled chain
        // that used to sit in the reassembler forever unless the host
        // remembered to call expire() itself.
        a.send_with_mid(vc, 4, vec![9; 40_000], Time::ZERO).unwrap();
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        while a.tx_backlog_cells() > 0 {
            let _lost = a.frame_tick();
        }
        // No explicit expire(): the receive path's own timer must
        // surface the timeout as idle line frames keep arriving.
        let mut saw_timeout = false;
        for ms in 1..=4u64 {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::from_ms(6 * ms));
            while let Some(e) = b.poll() {
                if let NicEvent::ReceiveError(f) = e {
                    assert_eq!(f.error, hni_aal::ReassemblyError::Timeout);
                    saw_timeout = true;
                }
            }
        }
        assert!(
            saw_timeout,
            "idle AAL3/4 chain must expire via the rx-path timer"
        );
    }

    #[test]
    fn faulted_injection_accounts_for_every_cell() {
        let (mut a, mut b, vc) = pair(AalType::Aal5);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        pump(&mut a, &mut b, 12);
        let mut inj = hni_sim::FaultInjector::seeded(
            hni_sim::FaultPlan::iid(0.05, 1e-5).with_duplication(0.02),
            11,
        );
        let n_frames = 40u64;
        let (mut offered, mut lost, mut dup) = (0u64, 0u64, 0u64);
        for i in 0..n_frames as usize {
            let payload: Vec<u8> = (0..2048).map(|j| ((i + j) % 256) as u8).collect();
            for cell in hni_aal::aal5::segment(vc, &payload, 0) {
                offered += 1;
                let fate = a.inject_cell_faulted(&cell, &mut inj);
                if fate.lost {
                    lost += 1;
                } else if fate.duplicated {
                    dup += 1;
                }
            }
        }
        assert!(lost > 0, "5% loss over {offered} cells should hit");
        // Every offered cell is either dropped before the queue or
        // queued (twice, if duplicated) — nothing vanishes unaccounted.
        assert_eq!(a.tc_transmitter().data_cells(), offered - lost + dup);
        let (mut ok, mut failed) = (0u64, 0u64);
        let mut evs = pump(&mut a, &mut b, 200);
        evs.extend(pump(&mut a, &mut b, 4));
        for e in &evs {
            match e {
                NicEvent::PacketReceived { .. } => ok += 1,
                NicEvent::ReceiveError(_) => failed += 1,
                _ => {}
            }
        }
        assert!(ok > 0, "some frames must survive 5% loss");
        assert!(failed > 0, "some frames must die to loss/corruption");
        assert!(ok + failed <= n_frames + lost + dup);
    }

    #[test]
    fn cam_capacity_limits_open_vcs() {
        let mut cfg = NicConfig::paper(LineRate::Oc3);
        cfg.cam_capacity = 2;
        let mut nic = Nic::new(cfg);
        nic.open_vc(VcId::new(0, 32)).unwrap();
        nic.open_vc(VcId::new(0, 33)).unwrap();
        assert_eq!(nic.open_vc(VcId::new(0, 34)), Err(NicError::CamFull));
    }
}

#[cfg(test)]
mod oam_tests {
    use super::*;
    use hni_aal::AalType;
    use hni_sonet::LineRate;

    #[test]
    fn oam_loopback_round_trip() {
        let mut cfg = NicConfig::paper(LineRate::Oc3);
        cfg.aal = AalType::Aal5;
        let mut a = Nic::new(cfg.clone());
        let mut b = Nic::new(cfg);
        let vc = VcId::new(0, 88);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        // Sync both directions.
        for _ in 0..12 {
            let fa = a.frame_tick();
            let fb = b.frame_tick();
            b.receive_line_octets(&fa, Time::ZERO);
            a.receive_line_octets(&fb, Time::ZERO);
        }
        a.send_oam_loopback(vc, 0xDEADBEEF).unwrap();
        let mut got = None;
        for _ in 0..20 {
            let fa = a.frame_tick();
            let fb = b.frame_tick();
            b.receive_line_octets(&fa, Time::ZERO);
            a.receive_line_octets(&fb, Time::ZERO);
            while b.poll().is_some() {}
            while let Some(e) = a.poll() {
                if let NicEvent::OamLoopbackReply { vc: v, tag } = e {
                    got = Some((v, tag));
                }
            }
            if got.is_some() {
                break;
            }
        }
        assert_eq!(got, Some((vc, 0xDEADBEEF)));
    }

    #[test]
    fn oam_requires_open_vc() {
        let mut nic = Nic::new(NicConfig::paper(LineRate::Oc3));
        assert_eq!(
            nic.send_oam_loopback(VcId::new(0, 5), 1),
            Err(NicError::VcNotOpen)
        );
    }

    #[test]
    fn oam_cells_do_not_disturb_reassembly() {
        let mut cfg = NicConfig::paper(LineRate::Oc3);
        cfg.aal = AalType::Aal5;
        let mut a = Nic::new(cfg.clone());
        let mut b = Nic::new(cfg);
        let vc = VcId::new(0, 89);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        for _ in 0..12 {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
        }
        // Interleave an OAM cell into the middle of a data frame's cells.
        a.send(vc, vec![5u8; 1000], Time::ZERO).unwrap();
        a.send_oam_loopback(vc, 7).unwrap();
        a.send(vc, vec![6u8; 1000], Time::ZERO).unwrap();
        let mut data = Vec::new();
        for _ in 0..10 {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
            while let Some(e) = b.poll() {
                if let NicEvent::PacketReceived { data: d, .. } = e {
                    data.push(d);
                }
            }
        }
        assert_eq!(data.len(), 2);
        assert_eq!(data[0], vec![5u8; 1000]);
        assert_eq!(data[1], vec![6u8; 1000]);
    }
}
