//! AAL3/4 — the heavyweight adaptation layer (ITU-T I.363, types 3/4
//! common part).
//!
//! Every cell carries 4 octets of SAR overhead around 44 octets of
//! payload:
//!
//! ```text
//!  SAR-PDU (48 octets = one cell payload)
//! ┌────┬────┬─────┬──────────────────┬────┬────────┐
//! │ ST │ SN │ MID │     payload      │ LI │ CRC-10 │
//! │ 2b │ 4b │ 10b │    44 octets     │ 6b │  10b   │
//! └────┴────┴─────┴──────────────────┴────┴────────┘
//! ```
//!
//! * **ST** segment type: BOM (begin), COM (continue), EOM (end), SSM
//!   (single-segment message).
//! * **SN** 4-bit sequence number, continuous per (VC, MID) stream —
//!   detects individual lost cells *immediately*, unlike AAL5.
//! * **MID** multiplexing identifier: frames from up to 1024 sources may
//!   interleave on one VC.
//! * **CRC-10** per cell: corruption is caught per cell, so a damaged
//!   frame is abandoned early instead of hauling dead cells to frame end.
//!
//! The CPCS-PDU wraps the SDU with a 4-octet header (CPI, BTag, BAsize)
//! and 4-octet trailer (AL, ETag, Length), padded to 32-bit alignment.
//! BTag must equal ETag — a second, independent guard against frame
//! merging.
//!
//! The cost of all this armour: 44/48 payload ratio and ~4 octets CPCS
//! envelope — the efficiency the R-F5 experiment trades off against
//! AAL5's fragility under loss.

use crate::crc::crc10;
use crate::{ReassembledSdu, ReassemblyError, ReassemblyFailure, ReassemblyOutcome};
use hni_atm::{Cell, CellRef, CellSlab, HeaderRepr, VcId, VcTable, PAYLOAD_SIZE};
use hni_sim::{Duration, Time};

/// SAR payload octets per cell.
pub const SAR_PAYLOAD: usize = 44;
/// CPCS header + trailer octets.
pub const CPCS_ENVELOPE: usize = 8;
/// Largest SDU (16-bit CPCS length field).
pub const MAX_SDU: usize = 65535;
/// Number of distinct MID values.
pub const MID_VALUES: u16 = 1024;

/// Segment type field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentType {
    /// Beginning of message.
    Bom,
    /// Continuation of message.
    Com,
    /// End of message.
    Eom,
    /// Single-segment message.
    Ssm,
}

impl SegmentType {
    fn to_bits(self) -> u8 {
        match self {
            SegmentType::Com => 0b00,
            SegmentType::Eom => 0b01,
            SegmentType::Bom => 0b10,
            SegmentType::Ssm => 0b11,
        }
    }
    fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b00 => SegmentType::Com,
            0b01 => SegmentType::Eom,
            0b10 => SegmentType::Bom,
            _ => SegmentType::Ssm,
        }
    }
}

/// Decoded SAR-PDU fields (zero-copy view over the 48 payload octets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SarPdu {
    /// Segment type.
    pub st: SegmentType,
    /// Sequence number (4 bits).
    pub sn: u8,
    /// Multiplexing identifier (10 bits).
    pub mid: u16,
    /// Length indicator: valid octets in the payload field.
    pub li: u8,
}

impl SarPdu {
    /// Parse the SAR fields from a 48-octet cell payload, verifying the
    /// CRC-10. Returns `None` on CRC failure.
    pub fn parse(payload48: &[u8]) -> Option<(SarPdu, [u8; SAR_PAYLOAD])> {
        debug_assert_eq!(payload48.len(), PAYLOAD_SIZE);
        if crc10(payload48) != 0 {
            return None;
        }
        let st = SegmentType::from_bits(payload48[0] >> 6);
        let sn = (payload48[0] >> 2) & 0x0F;
        let mid = (((payload48[0] & 0b11) as u16) << 8) | payload48[1] as u16;
        let li = payload48[46] >> 2;
        let mut body = [0u8; SAR_PAYLOAD];
        body.copy_from_slice(&payload48[2..46]);
        Some((SarPdu { st, sn, mid, li }, body))
    }

    /// Emit a complete 48-octet SAR-PDU (computes the CRC-10).
    pub fn emit(&self, body: &[u8; SAR_PAYLOAD]) -> [u8; PAYLOAD_SIZE] {
        let mut out = [0u8; PAYLOAD_SIZE];
        out[0] =
            (self.st.to_bits() << 6) | ((self.sn & 0x0F) << 2) | ((self.mid >> 8) as u8 & 0b11);
        out[1] = self.mid as u8;
        out[2..46].copy_from_slice(body);
        out[46] = self.li << 2;
        out[47] = 0;
        // The CRC covers the 374 bits preceding it (header, payload, LI).
        let c = crate::crc::crc10_bits(&out, 46 * 8 + 6);
        out[46] |= (c >> 8) as u8;
        out[47] = c as u8;
        out
    }
}

/// CPCS-PDU length (multiple of 4) for an SDU of `len` octets:
/// 4-octet header + padded payload + 4-octet trailer.
pub fn cpcs_pdu_len(len: usize) -> usize {
    CPCS_ENVELOPE + len.div_ceil(4) * 4
}

/// Pack a (VC, MID) stream identity into one [`VcTable`] key: the
/// 24-bit cam key shifted above the 10-bit MID. Unique by construction
/// (MID < 1024 is asserted at every entry point).
#[inline]
fn stream_key(vc: VcId, mid: u16) -> u64 {
    debug_assert!(mid < MID_VALUES);
    ((vc.cam_key() as u64) << 10) | mid as u64
}

/// Recover the (VC, MID) pair from a [`stream_key`].
#[inline]
fn stream_unkey(key: u64) -> (VcId, u16) {
    (
        VcId::new((key >> 26) as u16, (key >> 10) as u16),
        (key & 0x3FF) as u16,
    )
}

/// The AAL3/4 segmenter. Stateful: sequence numbers run continuously per
/// (VC, MID) stream and BTag/ETag values increment per frame, as a real
/// transmitter's would.
#[derive(Default)]
pub struct Aal34Segmenter {
    /// Per-(VC, MID) transmit counters in the sharded VC table (the SN
    /// runs per cell, the BTag/ETag per frame).
    streams: VcTable<MidState>,
    /// Reusable CPCS build buffer: after the first frame of the working
    /// set, segmentation allocates nothing per frame (and nothing per
    /// cell on the slab path).
    cpcs: Vec<u8>,
}

impl Aal34Segmenter {
    /// New segmenter with all sequence numbers at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Segment `sdu` for transmission on `vc` with multiplexing id `mid`.
    ///
    /// # Panics
    /// If `sdu.len() > MAX_SDU` or `mid >= 1024`.
    pub fn segment(&mut self, vc: VcId, mid: u16, sdu: &[u8]) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(crate::AalType::Aal34.cells_for_sdu(sdu.len()));
        self.segment_with(vc, mid, sdu, |header, payload| {
            cells.push(
                Cell::new(header, payload).expect("UNI header for user VC is always encodable"),
            );
        });
        cells
    }

    /// Segment into slab-backed cells, appending one [`CellRef`] per cell
    /// to `out`. Byte-identical to [`Aal34Segmenter::segment`] (same
    /// core); zero heap allocations per cell on a warmed-up slab.
    pub fn segment_into(
        &mut self,
        vc: VcId,
        mid: u16,
        sdu: &[u8],
        slab: &mut CellSlab,
        out: &mut Vec<CellRef>,
    ) {
        self.segment_with(vc, mid, sdu, |header, payload| {
            let (r, cell) = slab.alloc_mut();
            cell.set_header(header)
                .expect("UNI header for user VC is always encodable");
            cell.payload_mut().copy_from_slice(payload);
            out.push(r);
        });
    }

    /// The segmentation core shared by the `Vec<Cell>` and slab paths:
    /// builds the CPCS-PDU in the reusable scratch buffer and emits each
    /// SAR-PDU through `emit`.
    fn segment_with(
        &mut self,
        vc: VcId,
        mid: u16,
        sdu: &[u8],
        mut emit: impl FnMut(&HeaderRepr, &[u8; PAYLOAD_SIZE]),
    ) {
        assert!(sdu.len() <= MAX_SDU, "SDU exceeds AAL3/4 maximum");
        assert!(mid < MID_VALUES, "MID is a 10-bit field");
        let key = stream_key(vc, mid);

        let tag = {
            let (_, st) = self
                .streams
                .get_or_insert_with(key, MidState::default)
                .expect("unbounded table never refuses");
            let cur = st.tag;
            st.tag = st.tag.wrapping_add(1);
            cur
        };

        // Build the CPCS-PDU.
        let pad = (4 - sdu.len() % 4) % 4;
        let mut cpcs = std::mem::take(&mut self.cpcs);
        cpcs.clear();
        cpcs.push(0); // CPI = 0
        cpcs.push(tag); // BTag
        cpcs.extend_from_slice(&(sdu.len() as u16).to_be_bytes()); // BAsize
        cpcs.extend_from_slice(sdu);
        cpcs.extend(std::iter::repeat_n(0u8, pad));
        cpcs.push(0); // AL
        cpcs.push(tag); // ETag
        cpcs.extend_from_slice(&(sdu.len() as u16).to_be_bytes()); // Length
        debug_assert_eq!(cpcs.len(), cpcs_pdu_len(sdu.len()));

        // Slice into SAR payloads.
        let n = cpcs.len().div_ceil(SAR_PAYLOAD);
        for (i, chunk) in cpcs.chunks(SAR_PAYLOAD).enumerate() {
            let st = match (n, i) {
                (1, _) => SegmentType::Ssm,
                (_, 0) => SegmentType::Bom,
                (_, i) if i == n - 1 => SegmentType::Eom,
                _ => SegmentType::Com,
            };
            let sn = {
                let st = self
                    .streams
                    .get_mut_by_key(key)
                    .expect("stream state installed above");
                let cur = st.sn;
                st.sn = (st.sn + 1) & 0x0F;
                cur
            };
            let mut body = [0u8; SAR_PAYLOAD];
            body[..chunk.len()].copy_from_slice(chunk);
            let sar = SarPdu {
                st,
                sn,
                mid,
                li: chunk.len() as u8,
            };
            let payload = sar.emit(&body);
            // AAL3/4 does not use the PTI end bit; all cells are plain data.
            emit(&HeaderRepr::data(vc, false), &payload);
        }
        self.cpcs = cpcs; // hand the scratch buffer back for reuse
    }
}

/// Per-(VC, MID) transmit-side counters.
#[derive(Default)]
struct MidState {
    sn: u8,
    tag: u8,
}

struct FrameState {
    buf: Vec<u8>,
    next_sn: u8,
    started_at: Time,
}

/// The AAL3/4 reassembler: per-(VC, MID) state machines with CRC-10,
/// sequence-number, tag and length validation.
pub struct Aal34Reassembler {
    /// In-progress frames, keyed by [`stream_key`] in the sharded VC
    /// table — AAL3/4's 1024-way MID interleave multiplies the live key
    /// count, which is exactly what the table is built to absorb.
    frames: VcTable<FrameState>,
    max_sdu: usize,
    timeout: Duration,
    crc_discards: u64,
}

impl Aal34Reassembler {
    /// A reassembler accepting SDUs up to `max_sdu` octets, abandoning
    /// frames older than `timeout`.
    pub fn new(max_sdu: usize, timeout: Duration) -> Self {
        Aal34Reassembler {
            frames: VcTable::new(),
            max_sdu: max_sdu.min(MAX_SDU),
            timeout,
            crc_discards: 0,
        }
    }

    /// Cells dropped on CRC-10 alone (may or may not have killed a frame).
    pub fn crc_discards(&self) -> u64 {
        self.crc_discards
    }

    fn fail(
        &mut self,
        key: (VcId, u16),
        error: ReassemblyError,
        extra_octets: usize,
    ) -> ReassemblyOutcome {
        let discarded = self
            .frames
            .remove(stream_key(key.0, key.1))
            .map(|f| f.buf.len())
            .unwrap_or(0)
            + extra_octets;
        Some(Err(ReassemblyFailure {
            vc: key.0,
            mid: key.1,
            error,
            discarded_octets: discarded,
        }))
    }

    /// Offer one cell.
    pub fn push(&mut self, cell: &Cell, now: Time) -> ReassemblyOutcome {
        let header = match cell.header() {
            Ok(h) => h,
            Err(_) => return None,
        };
        if !header.pti.is_user_data() {
            return None;
        }
        let vc = header.vc();

        let Some((sar, body)) = SarPdu::parse(cell.payload()) else {
            // CRC-10 failure: we cannot even trust the MID field. The cell
            // is dropped; any in-progress frame on this VC will be caught
            // by its SN check or timeout. This mirrors the hardware, which
            // discards the cell before demultiplexing.
            self.crc_discards += 1;
            return None;
        };
        let key = (vc, sar.mid);
        let skey = stream_key(vc, sar.mid);

        match sar.st {
            SegmentType::Ssm => {
                let mut outcome = None;
                if self.frames.find(skey).is_some() {
                    outcome = self.fail(key, ReassemblyError::UnexpectedBegin, 0);
                }
                let li = sar.li as usize;
                if !(CPCS_ENVELOPE..=SAR_PAYLOAD).contains(&li) {
                    return self.fail(key, ReassemblyError::MalformedCpcs, li);
                }
                let res = self.validate_cpcs(key, body[..li].to_vec());
                // If we had to kill an in-progress frame, that report takes
                // precedence; the SSM result is still produced next push in
                // real streams — here we privilege the failure report.
                outcome.or(res)
            }
            SegmentType::Bom => {
                let mut first_failure = None;
                if self.frames.find(skey).is_some() {
                    first_failure = self.fail(key, ReassemblyError::UnexpectedBegin, 0);
                }
                if sar.li as usize != SAR_PAYLOAD {
                    return first_failure.or_else(|| {
                        self.fail(key, ReassemblyError::MalformedCpcs, sar.li as usize)
                    });
                }
                self.frames.insert(
                    skey,
                    FrameState {
                        buf: body.to_vec(),
                        next_sn: (sar.sn + 1) & 0x0F,
                        started_at: now,
                    },
                );
                first_failure
            }
            SegmentType::Com | SegmentType::Eom => {
                let Some(frame) = self.frames.get_mut_by_key(skey) else {
                    return self.fail(key, ReassemblyError::NoFrameInProgress, sar.li as usize);
                };
                if sar.sn != frame.next_sn {
                    return self.fail(key, ReassemblyError::SequenceGap, 0);
                }
                frame.next_sn = (sar.sn + 1) & 0x0F;

                let li = sar.li as usize;
                match sar.st {
                    SegmentType::Com => {
                        if li != SAR_PAYLOAD {
                            return self.fail(key, ReassemblyError::MalformedCpcs, 0);
                        }
                        frame.buf.extend_from_slice(&body);
                        if frame.buf.len() > cpcs_pdu_len(self.max_sdu) {
                            return self.fail(key, ReassemblyError::TooLong, 0);
                        }
                        None
                    }
                    SegmentType::Eom => {
                        if !(4..=SAR_PAYLOAD).contains(&li) {
                            return self.fail(key, ReassemblyError::MalformedCpcs, 0);
                        }
                        frame.buf.extend_from_slice(&body[..li]);
                        let frame = self.frames.remove(skey).expect("frame just updated");
                        self.validate_cpcs(key, frame.buf)
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Validate a complete CPCS-PDU and produce the SDU.
    fn validate_cpcs(&mut self, key: (VcId, u16), cpcs: Vec<u8>) -> ReassemblyOutcome {
        if cpcs.len() < CPCS_ENVELOPE || !cpcs.len().is_multiple_of(4) {
            return Some(Err(ReassemblyFailure {
                vc: key.0,
                mid: key.1,
                error: ReassemblyError::MalformedCpcs,
                discarded_octets: cpcs.len(),
            }));
        }
        let cpi = cpcs[0];
        let btag = cpcs[1];
        let basize = u16::from_be_bytes([cpcs[2], cpcs[3]]) as usize;
        let t = &cpcs[cpcs.len() - 4..];
        let _al = t[0];
        let etag = t[1];
        let length = u16::from_be_bytes([t[2], t[3]]) as usize;

        let fail = |error| {
            Some(Err(ReassemblyFailure {
                vc: key.0,
                mid: key.1,
                error,
                discarded_octets: cpcs.len(),
            }))
        };
        if cpi != 0 {
            return fail(ReassemblyError::MalformedCpcs);
        }
        if btag != etag {
            return fail(ReassemblyError::TagMismatch);
        }
        if length > self.max_sdu || basize < length || cpcs_pdu_len(length) != cpcs.len() {
            return fail(ReassemblyError::LengthMismatch);
        }

        Some(Ok(ReassembledSdu {
            vc: key.0,
            mid: key.1,
            data: cpcs[4..4 + length].to_vec(),
            user_to_user: 0,
        }))
    }

    /// Abandon timed-out frames.
    pub fn expire(&mut self, now: Time) -> Vec<ReassemblyFailure> {
        let timeout = self.timeout;
        let expired: Vec<u64> = self
            .frames
            .iter()
            .filter(|(_, f)| now.saturating_since(f.started_at) > timeout)
            .map(|(k, _)| k)
            .collect();
        expired
            .into_iter()
            .map(|key| {
                let f = self.frames.remove(key).expect("key from iteration");
                let (vc, mid) = stream_unkey(key);
                ReassemblyFailure {
                    vc,
                    mid,
                    error: ReassemblyError::Timeout,
                    discarded_octets: f.buf.len(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VcId {
        VcId::new(2, 200)
    }

    fn reasm() -> Aal34Reassembler {
        Aal34Reassembler::new(MAX_SDU, Duration::from_ms(10))
    }

    fn roundtrip(sdu: &[u8]) -> ReassembledSdu {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 7, sdu);
        let mut r = reasm();
        let mut done = None;
        for c in &cells {
            if let Some(out) = r.push(c, Time::ZERO) {
                done = Some(out);
            }
        }
        done.expect("frame should complete")
            .expect("frame should be valid")
    }

    #[test]
    fn roundtrip_multi_cell() {
        let sdu: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let out = roundtrip(&sdu);
        assert_eq!(out.data, sdu);
        assert_eq!(out.mid, 7);
    }

    #[test]
    fn roundtrip_single_segment() {
        // ≤36 octets fits in one SSM cell.
        let sdu = b"ssm fits in one cell";
        let out = roundtrip(sdu);
        assert_eq!(out.data, sdu);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(roundtrip(&[]).data, Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_boundaries() {
        for len in [35, 36, 37, 79, 80, 81, 100, 1000] {
            let sdu: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            assert_eq!(roundtrip(&sdu).data, sdu, "len {len}");
        }
    }

    #[test]
    fn segment_types_correct() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 0, &[0u8; 200]); // CPCS 208 → 5 cells
        let sts: Vec<SegmentType> = cells
            .iter()
            .map(|c| SarPdu::parse(c.payload()).unwrap().0.st)
            .collect();
        assert_eq!(sts[0], SegmentType::Bom);
        assert_eq!(*sts.last().unwrap(), SegmentType::Eom);
        assert!(sts[1..sts.len() - 1]
            .iter()
            .all(|&st| st == SegmentType::Com));
    }

    #[test]
    fn sequence_numbers_continuous_mod_16() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 0, &[0u8; 2000]);
        let sns: Vec<u8> = cells
            .iter()
            .map(|c| SarPdu::parse(c.payload()).unwrap().0.sn)
            .collect();
        for (i, &sn) in sns.iter().enumerate() {
            assert_eq!(sn, (i % 16) as u8);
        }
        // SN continues across frames on the same (vc, mid).
        let more = seg.segment(vc(), 0, &[0u8; 44]);
        let first_sn = SarPdu::parse(more[0].payload()).unwrap().0.sn;
        assert_eq!(first_sn as usize, sns.len() % 16);
    }

    #[test]
    fn lost_com_cell_detected_as_gap() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 3, &[1u8; 500]);
        let mut r = reasm();
        let mut outcome = None;
        for (i, c) in cells.iter().enumerate() {
            if i == 2 {
                continue;
            }
            if let Some(o) = r.push(c, Time::ZERO) {
                outcome = Some(o);
                break;
            }
        }
        // Detected at the very next cell — not at frame end.
        let failure = outcome.unwrap().unwrap_err();
        assert_eq!(failure.error, ReassemblyError::SequenceGap);
        assert_eq!(failure.mid, 3);
    }

    #[test]
    fn corrupted_cell_dropped_by_crc10() {
        let mut seg = Aal34Segmenter::new();
        let mut cells = seg.segment(vc(), 0, &[2u8; 500]);
        cells[1].payload_mut()[10] ^= 0x40;
        let mut r = reasm();
        let mut failure = None;
        for c in &cells {
            if let Some(Err(f)) = r.push(c, Time::ZERO) {
                failure = Some(f);
                break;
            }
        }
        // The corrupt cell is silently dropped (CRC-10), and the *next*
        // cell trips the sequence-number check.
        assert_eq!(r.crc_discards(), 1);
        assert_eq!(failure.unwrap().error, ReassemblyError::SequenceGap);
    }

    #[test]
    fn interleaved_mids_on_one_vc() {
        // The whole point of the MID field: two frames interleave on one
        // VC and both reassemble.
        let mut seg = Aal34Segmenter::new();
        let sdu_a: Vec<u8> = vec![0xAA; 300];
        let sdu_b: Vec<u8> = vec![0xBB; 300];
        let ca = seg.segment(vc(), 1, &sdu_a);
        let cb = seg.segment(vc(), 2, &sdu_b);
        let mut r = reasm();
        let mut got = Vec::new();
        for i in 0..ca.len().max(cb.len()) {
            for cells in [&ca, &cb] {
                if let Some(c) = cells.get(i) {
                    if let Some(Ok(sdu)) = r.push(c, Time::ZERO) {
                        got.push(sdu);
                    }
                }
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().find(|s| s.mid == 1).unwrap().data, sdu_a);
        assert_eq!(got.iter().find(|s| s.mid == 2).unwrap().data, sdu_b);
    }

    #[test]
    fn com_without_bom_rejected() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 0, &[1u8; 500]);
        let mut r = reasm();
        let out = r.push(&cells[1], Time::ZERO); // a COM cell, no BOM
        assert_eq!(
            out.unwrap().unwrap_err().error,
            ReassemblyError::NoFrameInProgress
        );
    }

    #[test]
    fn bom_during_frame_reports_unexpected_begin() {
        let mut seg = Aal34Segmenter::new();
        let f1 = seg.segment(vc(), 0, &[1u8; 500]);
        let f2 = seg.segment(vc(), 0, &[2u8; 500]);
        let mut r = reasm();
        r.push(&f1[0], Time::ZERO);
        r.push(&f1[1], Time::ZERO);
        let out = r.push(&f2[0], Time::ZERO); // new BOM mid-frame
        assert_eq!(
            out.unwrap().unwrap_err().error,
            ReassemblyError::UnexpectedBegin
        );
        // ... and the new frame proceeds normally afterwards.
        let mut done = None;
        for c in &f2[1..] {
            if let Some(o) = r.push(c, Time::ZERO) {
                done = Some(o);
            }
        }
        assert_eq!(done.unwrap().unwrap().data, vec![2u8; 500]);
    }

    #[test]
    fn tag_mismatch_detected() {
        // Craft a frame whose EOM carries a different ETag by splicing
        // cells from two frames at the right SN offset: frame A's BOM/COMs
        // with frame B's EOM won't have matching tags. Simpler: corrupt
        // the ETag octet and re-CRC the cell.
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 0, &[3u8; 100]); // CPCS 108 → 3 cells
        let mut r = reasm();
        r.push(&cells[0], Time::ZERO);
        r.push(&cells[1], Time::ZERO);
        // Rebuild the EOM with a tampered ETag.
        let (sar, mut body) = SarPdu::parse(cells[2].payload()).unwrap();
        // CPCS so far: 88 octets in BOM+COM; EOM carries the remaining 20:
        // 16 payload+pad, then AL, ETag, Length(2). ETag is at offset
        // li-3 within the body.
        let etag_off = sar.li as usize - 3;
        body[etag_off] ^= 0xFF;
        let new_payload = sar.emit(&body);
        let mut tampered = cells[2].clone();
        tampered.payload_mut().copy_from_slice(&new_payload);
        let out = r.push(&tampered, Time::ZERO);
        assert_eq!(
            out.unwrap().unwrap_err().error,
            ReassemblyError::TagMismatch
        );
    }

    #[test]
    fn timeout_expires_stalled_frames() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 5, &[1u8; 500]);
        let mut r = Aal34Reassembler::new(MAX_SDU, Duration::from_us(50));
        r.push(&cells[0], Time::ZERO);
        let fails = r.expire(Time::from_us(100));
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].error, ReassemblyError::Timeout);
        assert_eq!(fails[0].mid, 5);
    }

    #[test]
    fn sar_pdu_field_roundtrip() {
        for (st, sn, mid, li) in [
            (SegmentType::Bom, 0u8, 0u16, 44u8),
            (SegmentType::Com, 15, 1023, 44),
            (SegmentType::Eom, 7, 512, 4),
            (SegmentType::Ssm, 3, 999, 36),
        ] {
            let body = [0x5Au8; SAR_PAYLOAD];
            let pdu = SarPdu { st, sn, mid, li };
            let bytes = pdu.emit(&body);
            let (parsed, pbody) = SarPdu::parse(&bytes).expect("CRC must verify");
            assert_eq!(parsed, pdu);
            assert_eq!(pbody, body);
        }
    }

    #[test]
    fn slab_path_matches_vec_path_byte_for_byte() {
        for len in [0usize, 1, 36, 37, 80, 500, 2000] {
            let sdu: Vec<u8> = (0..len).map(|i| (i * 11 % 256) as u8).collect();
            // Two segmenters in the same state produce the same SN/tag
            // sequences; one drives the Vec path, one the slab path.
            let mut seg_a = Aal34Segmenter::new();
            let mut seg_b = Aal34Segmenter::new();
            let vec_cells = seg_a.segment(vc(), 9, &sdu);
            let mut slab = CellSlab::new();
            let mut refs = Vec::new();
            seg_b.segment_into(vc(), 9, &sdu, &mut slab, &mut refs);
            assert_eq!(vec_cells.len(), refs.len(), "len {len}");
            for (c, &r) in vec_cells.iter().zip(&refs) {
                assert_eq!(c.as_bytes(), slab.get(r).as_bytes(), "len {len}");
            }
        }
    }

    #[test]
    fn max_sdu_enforced() {
        let mut seg = Aal34Segmenter::new();
        let cells = seg.segment(vc(), 0, &vec![0u8; 5000]);
        let mut r = Aal34Reassembler::new(1000, Duration::from_ms(1));
        let mut failure = None;
        for c in &cells {
            if let Some(Err(f)) = r.push(c, Time::ZERO) {
                failure = Some(f);
                break;
            }
        }
        assert_eq!(failure.unwrap().error, ReassemblyError::TooLong);
    }
}
