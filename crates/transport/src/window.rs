//! Per-VC sliding send window over frame sequence numbers.
//!
//! The window tracks which of a connection's `total` frames have been
//! handed to the wire and which are acknowledged, under a cap of
//! `cap` unacknowledged frames in flight. Acknowledgement arrives two
//! ways, as in TCP with SACK:
//!
//! * **cumulative** — everything below `cum` is delivered; the left
//!   edge (`una`) advances, skipping over frames already selectively
//!   acknowledged;
//! * **selective** — a frame above the left edge is delivered
//!   out of order; it is marked so recovery never resends it, but
//!   `una` holds at the missing frame.
//!
//! The window also counts duplicate cumulative acks — the signal the
//! transport's fast-retransmit machinery triggers on.

/// Send-window state for one connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendWindow {
    cap: usize,
    total: usize,
    next: usize,
    una: usize,
    acked: Vec<bool>,
    dup_acks: u32,
}

impl SendWindow {
    /// A window of `cap` frames over a transfer of `total` frames.
    pub fn new(cap: usize, total: usize) -> Self {
        assert!(cap >= 1, "window of zero frames can never send");
        SendWindow {
            cap,
            total,
            next: 0,
            una: 0,
            acked: vec![false; total],
            dup_acks: 0,
        }
    }

    /// Lowest unacknowledged sequence (the window's left edge).
    pub fn una(&self) -> usize {
        self.una
    }

    /// Next never-sent sequence.
    pub fn next_seq(&self) -> usize {
        self.next
    }

    /// Has `seq` been acknowledged (cumulatively or selectively)?
    pub fn is_acked(&self, seq: usize) -> bool {
        self.acked[seq]
    }

    /// May a *new* (never-sent) frame enter the window now?
    pub fn can_send_new(&self) -> bool {
        self.next < self.total && self.next < self.una + self.cap
    }

    /// Claim the next new sequence for transmission.
    pub fn take_next(&mut self) -> usize {
        assert!(self.can_send_new(), "window closed or transfer exhausted");
        let seq = self.next;
        self.next += 1;
        seq
    }

    /// Mark one sequence acknowledged (selective ack, or the transport
    /// abandoning a frame). Returns true if it was newly acknowledged.
    /// The left edge advances over any acknowledged prefix.
    pub fn mark_acked(&mut self, seq: usize) -> bool {
        if self.acked[seq] {
            return false;
        }
        self.acked[seq] = true;
        if seq == self.una {
            self.advance();
        }
        true
    }

    /// Apply a cumulative ack: every sequence below `cum` is delivered.
    /// Returns the previous left edge; the caller can inspect
    /// `[old_una, cum)` for RTT-sampling candidates. Resets the
    /// duplicate-ack counter iff the window actually advanced.
    pub fn on_cum_ack(&mut self, cum: usize) -> usize {
        let old = self.una;
        let cum = cum.min(self.total);
        for seq in self.una..cum {
            self.acked[seq] = true;
        }
        if cum > self.una {
            self.advance();
            self.dup_acks = 0;
        }
        old
    }

    /// Count one duplicate cumulative ack; returns the running count.
    pub fn dup_ack(&mut self) -> u32 {
        self.dup_acks += 1;
        self.dup_acks
    }

    /// Clear the duplicate-ack counter (after a fast retransmit fires).
    pub fn reset_dup_acks(&mut self) {
        self.dup_acks = 0;
    }

    /// Current duplicate-ack count.
    pub fn dup_acks(&self) -> u32 {
        self.dup_acks
    }

    /// Every frame acknowledged: the transfer is over.
    pub fn done(&self) -> bool {
        self.una == self.total
    }

    fn advance(&mut self) {
        while self.una < self.total && self.acked[self.una] {
            self.una += 1;
        }
        // The left edge never passes the send edge backwards; if acks
        // covered frames the window never sent (cannot happen with an
        // honest peer, but cheap to keep consistent), drag `next` along.
        if self.next < self.una {
            self.next = self.una;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_frames_in_flight() {
        let mut w = SendWindow::new(3, 10);
        assert!(w.can_send_new());
        assert_eq!(w.take_next(), 0);
        assert_eq!(w.take_next(), 1);
        assert_eq!(w.take_next(), 2);
        assert!(!w.can_send_new(), "window of 3 is full");
        w.on_cum_ack(1);
        assert_eq!(w.una(), 1);
        assert!(w.can_send_new(), "ack slides the window open");
        assert_eq!(w.take_next(), 3);
    }

    #[test]
    fn sack_holds_left_edge_then_cum_skips_over() {
        let mut w = SendWindow::new(4, 8);
        for _ in 0..4 {
            w.take_next();
        }
        // Frames 1 and 2 arrive out of order; 0 is missing.
        assert!(w.mark_acked(1));
        assert!(w.mark_acked(2));
        assert!(!w.mark_acked(2), "re-sack is not news");
        assert_eq!(w.una(), 0, "left edge holds at the hole");
        // The hole fills: una jumps past the sacked run in one step.
        w.on_cum_ack(1);
        assert_eq!(w.una(), 3);
    }

    #[test]
    fn dup_acks_count_and_reset_on_advance() {
        let mut w = SendWindow::new(4, 8);
        for _ in 0..4 {
            w.take_next();
        }
        assert_eq!(w.dup_ack(), 1);
        assert_eq!(w.dup_ack(), 2);
        assert_eq!(w.dup_ack(), 3);
        w.on_cum_ack(2);
        assert_eq!(w.dup_acks(), 0, "window advance clears the count");
        // A cumulative ack that does not advance leaves the count alone.
        w.dup_ack();
        w.on_cum_ack(2);
        assert_eq!(w.dup_acks(), 1);
    }

    #[test]
    fn done_when_every_frame_acked() {
        let mut w = SendWindow::new(2, 3);
        w.take_next();
        w.take_next();
        w.on_cum_ack(2);
        w.take_next();
        assert!(!w.done());
        w.mark_acked(2);
        assert!(w.done());
        assert_eq!(w.una(), 3);
    }
}
