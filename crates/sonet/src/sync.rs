//! Receiver frame alignment: finding the 125 µs frame boundary in a raw
//! octet stream by hunting for the A1…A1 A2…A2 pattern.
//!
//! Mirrors the cell-delineation philosophy one layer down: HUNT scans
//! octet-by-octet for the framing pattern; PRESYNC demands the pattern
//! repeat at exactly one frame spacing before trusting it; SYNC slices
//! frames and tolerates occasional pattern misses (the pattern octets are
//! not error-protected) up to a loss-of-frame threshold.
//!
//! This model is octet-aligned (a real SONET receiver also resolves bit
//! alignment; our links deliver octets, so bit-phase is out of scope).

use crate::frame::{A1, A2};
use crate::rates::LineRate;

/// Consecutive confirmed frames in PRESYNC before declaring SYNC.
pub const PRESYNC_CONFIRM: u32 = 2;
/// Consecutive missed patterns in SYNC before declaring loss of frame.
pub const LOF_THRESHOLD: u32 = 4;

/// Frame alignment state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameSyncState {
    /// Scanning for the framing pattern.
    Hunt,
    /// Pattern found once; confirming at frame spacing.
    Presync {
        /// Confirmations so far.
        confirmed: u32,
    },
    /// In frame. `misses` is the current run of absent patterns.
    Sync {
        /// Consecutive frames whose pattern octets did not match.
        misses: u32,
    },
}

/// Octet-stream frame aligner. Feed arbitrary chunks; complete aligned
/// frames come out.
pub struct FrameAligner {
    rate: LineRate,
    state: FrameSyncState,
    buf: Vec<u8>,
    acquisitions: u64,
    losses: u64,
}

impl FrameAligner {
    /// An aligner for `rate`, in HUNT.
    pub fn new(rate: LineRate) -> Self {
        FrameAligner {
            rate,
            state: FrameSyncState::Hunt,
            buf: Vec::new(),
            acquisitions: 0,
            losses: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> FrameSyncState {
        self.state
    }
    /// Whether frame alignment is established.
    pub fn is_synced(&self) -> bool {
        matches!(self.state, FrameSyncState::Sync { .. })
    }
    /// Times alignment has been acquired.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }
    /// Times alignment has been lost.
    pub fn losses(&self) -> u64 {
        self.losses
    }

    fn pattern_at(&self, pos: usize) -> bool {
        let n = self.rate.sts_n();
        if pos + 2 * n > self.buf.len() {
            return false;
        }
        self.buf[pos..pos + n].iter().all(|&b| b == A1)
            && self.buf[pos + n..pos + 2 * n].iter().all(|&b| b == A2)
    }

    /// Feed octets; complete frames (each exactly one frame long,
    /// starting at the first A1) are appended to `out`.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) {
        self.buf.extend_from_slice(bytes);
        loop {
            match self.state {
                FrameSyncState::Hunt => {
                    let n = self.rate.sts_n();
                    // Scan for the pattern.
                    let mut found = None;
                    if self.buf.len() >= 2 * n {
                        for pos in 0..=(self.buf.len() - 2 * n) {
                            if self.pattern_at(pos) {
                                found = Some(pos);
                                break;
                            }
                        }
                    }
                    match found {
                        Some(pos) => {
                            self.buf.drain(..pos);
                            self.state = FrameSyncState::Presync { confirmed: 0 };
                        }
                        None => {
                            // Keep only a tail that could prefix a pattern.
                            let keep = (2 * n).saturating_sub(1).min(self.buf.len());
                            let cut = self.buf.len() - keep;
                            self.buf.drain(..cut);
                            return;
                        }
                    }
                }
                FrameSyncState::Presync { confirmed } => {
                    let flen = self.rate.frame_octets();
                    // Need the candidate frame plus the next pattern.
                    if self.buf.len() < flen + 2 * self.rate.sts_n() {
                        return;
                    }
                    if self.pattern_at(flen) {
                        let confirmed = confirmed + 1;
                        // The candidate frame is consumed without delivery
                        // (alignment not yet trusted).
                        self.buf.drain(..flen);
                        if confirmed >= PRESYNC_CONFIRM {
                            self.state = FrameSyncState::Sync { misses: 0 };
                            self.acquisitions += 1;
                        } else {
                            self.state = FrameSyncState::Presync { confirmed };
                        }
                    } else {
                        // False alignment: slip one octet and re-hunt.
                        self.buf.drain(..1);
                        self.state = FrameSyncState::Hunt;
                    }
                }
                FrameSyncState::Sync { misses } => {
                    let flen = self.rate.frame_octets();
                    if self.buf.len() < flen {
                        return;
                    }
                    let ok = self.pattern_at(0);
                    let frame = self.buf[..flen].to_vec();
                    self.buf.drain(..flen);
                    if ok {
                        self.state = FrameSyncState::Sync { misses: 0 };
                        out.push(frame);
                    } else {
                        let misses = misses + 1;
                        if misses >= LOF_THRESHOLD {
                            self.losses += 1;
                            self.state = FrameSyncState::Hunt;
                        } else {
                            // Tolerate the miss: slice on last known
                            // alignment and still deliver.
                            self.state = FrameSyncState::Sync { misses };
                            out.push(frame);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;

    fn frames(rate: LineRate, count: usize) -> Vec<Vec<u8>> {
        let mut b = FrameBuilder::new(rate);
        (0..count)
            .map(|i| {
                let payload: Vec<u8> = (0..rate.payload_octets_per_frame())
                    .map(|j| ((i * 7 + j) % 256) as u8)
                    .collect();
                b.build(&payload, 0)
            })
            .collect()
    }

    #[test]
    fn aligns_on_clean_stream() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 8);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        // Each PRESYNC confirmation peeks the NEXT frame's pattern and
        // consumes the current frame, so exactly PRESYNC_CONFIRM frames
        // are eaten; frames 2..7 delivered.
        assert_eq!(out.len(), 8 - PRESYNC_CONFIRM as usize);
        assert_eq!(out[0], fs[PRESYNC_CONFIRM as usize]);
    }

    #[test]
    fn aligns_from_mid_stream_offset() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 10);
        let mut stream: Vec<u8> = fs.iter().flatten().copied().collect();
        // Chop 1000 octets off the front: we start mid-frame.
        stream.drain(..1000);
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        assert!(!out.is_empty());
        // Every delivered frame must start with the pattern.
        for f in &out {
            assert_eq!(&f[..3], &[A1, A1, A1]);
            assert_eq!(&f[3..6], &[A2, A2, A2]);
        }
    }

    #[test]
    fn delivery_in_arbitrary_chunks() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 8);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        // Push in awkward chunk sizes.
        for chunk in stream.chunks(731) {
            a.push(chunk, &mut out);
        }
        assert!(a.is_synced());
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn tolerates_sub_threshold_pattern_misses() {
        let rate = LineRate::Oc3;
        let mut fs = frames(rate, 10);
        // Corrupt the A1 octets of one mid-stream frame.
        fs[6][0] ^= 0xFF;
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced(), "one miss must not drop alignment");
        assert_eq!(out.len(), 8); // frames 2..9 delivered, incl. the damaged one
        assert_eq!(a.losses(), 0);
    }

    #[test]
    fn loses_frame_after_threshold_and_reacquires() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 6);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        // Garbage with no pattern, longer than LOF_THRESHOLD frames.
        let garbage = vec![0x55u8; rate.frame_octets() * (LOF_THRESHOLD as usize + 1)];
        a.push(&garbage, &mut out);
        assert!(!a.is_synced());
        assert_eq!(a.losses(), 1);
        // Clean frames again: reacquire.
        let fs2 = frames(rate, 6);
        let stream2: Vec<u8> = fs2.iter().flatten().copied().collect();
        a.push(&stream2, &mut out);
        assert!(a.is_synced());
        assert_eq!(a.acquisitions(), 2);
    }

    #[test]
    fn hunt_keeps_pattern_prefix_across_chunks() {
        // The pattern split across two pushes must still be found.
        let rate = LineRate::Oc3;
        let fs = frames(rate, 5);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        // Push garbage ending with half the pattern, then the rest.
        let mut part1 = vec![0x11u8; 97];
        part1.extend_from_slice(&stream[..4]); // A1 A1 A1 A2
        a.push(&part1, &mut out);
        a.push(&stream[4..], &mut out);
        assert!(a.is_synced());
    }
}
