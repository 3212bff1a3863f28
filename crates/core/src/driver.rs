//! The host driver: descriptor rings and interrupts around the
//! functional NIC.
//!
//! [`crate::nic::Nic`] is the adaptor; this is the kernel module that
//! owns it. The line divides the work: the `Nic` owns reassembly, its
//! timer included, and counts the cells it queues; the driver owns its
//! rings and interrupts. It adds the three resource disciplines every
//! real driver imposes, each observable in tests:
//!
//! * **Transmit ring** — a bounded descriptor ring. When it fills
//!   (the line is slower than the application), `send` returns
//!   [`DriverError::TxRingFull`] and the application must back off:
//!   flow control by allocation, the only kind a dumb kernel had.
//! * **Receive buffers** — the driver pre-posts a fixed pool of host
//!   buffers. A packet arriving with no free buffer is dropped *by the
//!   host* (counted separately from every wire-level loss); buffers
//!   return to the pool when the application consumes the packet.
//! * **Interrupt coalescing** — completed receive packets are announced
//!   in batches: an interrupt fires when `coalesce_packets` packets are
//!   pending or `coalesce_delay` has passed since the first unannounced
//!   one. The application only sees packets at interrupts, trading
//!   latency for per-interrupt overhead exactly as R-F2's host table
//!   prices it.
//!
//! Each direction keeps one ring in place: no call builds a collection.

use crate::nic::{Nic, NicError, NicEvent};
use hni_atm::VcId;
use hni_sim::{Duration, Time};
use std::collections::VecDeque;

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Transmit descriptor ring depth (packets in flight to the line).
    pub tx_ring: usize,
    /// Pre-posted receive buffers (packets the host can hold before the
    /// application reads them).
    pub rx_buffers: usize,
    /// Interrupt after this many pending receive packets.
    pub coalesce_packets: usize,
    /// ... or after this delay past the first pending packet.
    pub coalesce_delay: Duration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            tx_ring: 32,
            rx_buffers: 64,
            coalesce_packets: 8,
            coalesce_delay: Duration::from_ms(1),
        }
    }
}

/// Driver-level errors (the NIC's own errors pass through).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverError {
    /// The transmit ring is full — try again after the line drains.
    TxRingFull,
    /// Underlying interface error.
    Nic(NicError),
}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriverError::TxRingFull => write!(f, "transmit ring full"),
            DriverError::Nic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// A received packet as the application sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RxPacket {
    /// Connection it arrived on.
    pub vc: VcId,
    /// The SDU.
    pub data: Vec<u8>,
    /// When the driver's interrupt announced it.
    pub announced_at: Time,
}

/// The driver wrapping a [`Nic`].
pub struct HostDriver {
    nic: Nic,
    cfg: DriverConfig,
    /// The transmit descriptor ring, oldest first: the cell count of each
    /// packet in flight until its cells clear the TC queue.
    tx_ring: VecDeque<usize>,
    /// Cells the transmit ring's descriptors hold in total.
    tx_ring_cells: usize,
    /// The receive ring, oldest first: every packet holding a host
    /// buffer. The first `announced` await the application; the rest
    /// wait for the next interrupt.
    rx_ring: VecDeque<RxPacket>,
    announced: usize,
    first_pending_at: Option<Time>,
    interrupts: u64,
    host_drops: u64,
}

impl HostDriver {
    /// Attach a driver to an interface.
    pub fn new(nic: Nic, cfg: DriverConfig) -> Self {
        assert!(cfg.tx_ring > 0 && cfg.rx_buffers > 0 && cfg.coalesce_packets > 0);
        HostDriver {
            nic,
            cfg,
            tx_ring: VecDeque::new(),
            tx_ring_cells: 0,
            rx_ring: VecDeque::new(),
            announced: 0,
            first_pending_at: None,
            interrupts: 0,
            host_drops: 0,
        }
    }

    /// The wrapped interface (for VC management, OAM, statistics).
    pub fn nic_mut(&mut self) -> &mut Nic {
        &mut self.nic
    }
    /// Read-only interface access.
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// Interrupts taken so far.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }
    /// Packets the host dropped for lack of receive buffers.
    pub fn host_drops(&self) -> u64 {
        self.host_drops
    }
    /// Transmit descriptors currently in flight.
    pub fn tx_in_flight(&self) -> usize {
        self.tx_ring.len()
    }

    /// Send an SDU: occupies one transmit descriptor until the packet's
    /// cells have cleared the interface's transmit queue.
    pub fn send(&mut self, vc: VcId, sdu: Vec<u8>, now: Time) -> Result<(), DriverError> {
        self.reclaim_tx_descriptors();
        if self.tx_ring.len() >= self.cfg.tx_ring {
            return Err(DriverError::TxRingFull);
        }
        let cells = self.nic.send(vc, sdu, now).map_err(DriverError::Nic)?;
        self.tx_ring.push_back(cells);
        self.tx_ring_cells += cells;
        Ok(())
    }

    /// Free descriptors whose cells have left for the line.
    fn reclaim_tx_descriptors(&mut self) {
        // Descriptors complete in FIFO order as the TC queue drains: the
        // backlog counts the cells of the *newest* descriptors still
        // queued, so the oldest is complete once the descriptors after
        // it cover the backlog.
        let backlog = self.nic.tx_backlog_cells();
        while let Some(&oldest) = self.tx_ring.front() {
            if self.tx_ring_cells - oldest < backlog {
                break;
            }
            self.tx_ring.pop_front();
            self.tx_ring_cells -= oldest;
        }
    }

    /// Clock tick: emit the next SONET frame for the line and update
    /// descriptor state.
    pub fn frame_tick(&mut self, now: Time) -> Vec<u8> {
        let frame = self.nic.frame_tick();
        self.reclaim_tx_descriptors();
        self.maybe_interrupt(now);
        frame
    }

    /// Feed received line octets; packets surface at interrupt time via
    /// [`HostDriver::poll_rx`].
    pub fn receive_line_octets(&mut self, octets: &[u8], now: Time) {
        self.nic.receive_line_octets(octets, now);
        while let Some(ev) = self.nic.poll() {
            if let NicEvent::PacketReceived { vc, data, .. } = ev {
                // A packet needs a host buffer from arrival, announced
                // or not.
                if self.rx_ring.len() >= self.cfg.rx_buffers {
                    self.host_drops += 1;
                    continue;
                }
                if self.first_pending_at.is_none() {
                    self.first_pending_at = Some(now);
                }
                self.rx_ring.push_back(RxPacket {
                    vc,
                    data,
                    announced_at: Time::MAX, // set at interrupt
                });
            }
            // Reassembly errors / unknown VCs are adaptor statistics;
            // a fuller driver would log them.
        }
        self.maybe_interrupt(now);
    }

    /// Fire the coalesced interrupt if due.
    fn maybe_interrupt(&mut self, now: Time) {
        let pending = self.rx_ring.len() - self.announced;
        let due_count = pending >= self.cfg.coalesce_packets;
        let due_time = matches!(self.first_pending_at, Some(t0) if now.saturating_since(t0) >= self.cfg.coalesce_delay);
        if pending > 0 && (due_count || due_time) {
            self.interrupts += 1;
            for p in self.rx_ring.range_mut(self.announced..) {
                p.announced_at = now;
            }
            self.announced = self.rx_ring.len();
            self.first_pending_at = None;
        }
    }

    /// Application read: take the next announced packet, returning its
    /// buffer to the pool.
    pub fn poll_rx(&mut self) -> Option<RxPacket> {
        if self.announced == 0 {
            return None;
        }
        self.announced -= 1;
        self.rx_ring.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NicConfig;
    use hni_sonet::LineRate;

    fn pair(cfg: DriverConfig) -> (HostDriver, HostDriver, VcId) {
        let ncfg = NicConfig::paper(LineRate::Oc3);
        let mut a = HostDriver::new(Nic::new(ncfg.clone()), cfg);
        let mut b = HostDriver::new(Nic::new(ncfg), cfg);
        let vc = VcId::new(0, 66);
        a.nic_mut().open_vc(vc).unwrap();
        b.nic_mut().open_vc(vc).unwrap();
        for _ in 0..12 {
            let f = a.frame_tick(Time::ZERO);
            b.receive_line_octets(&f, Time::ZERO);
        }
        (a, b, vc)
    }

    #[test]
    fn transfer_through_driver() {
        let (mut a, mut b, vc) = pair(DriverConfig::default());
        for i in 0..5u8 {
            a.send(vc, vec![i; 500], Time::ZERO).unwrap();
        }
        let mut got = Vec::new();
        for i in 0..20u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick(now);
            b.receive_line_octets(&f, now);
            while let Some(p) = b.poll_rx() {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 5);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(p.data, vec![i as u8; 500]);
            assert_eq!(p.vc, vc);
        }
    }

    #[test]
    fn tx_ring_backpressure() {
        let cfg = DriverConfig {
            tx_ring: 4,
            ..DriverConfig::default()
        };
        let (mut a, _b, vc) = pair(cfg);
        // Large packets: an OC-3 frame carries ~44 cells; a 9180-octet
        // packet is 192 cells, so the ring fills before the line drains.
        let mut accepted = 0;
        let mut refused = 0;
        for _ in 0..10 {
            match a.send(vc, vec![0; 9180], Time::ZERO) {
                Ok(()) => accepted += 1,
                Err(DriverError::TxRingFull) => refused += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(refused, 6);
        // Draining the line frees descriptors.
        for i in 0..40u64 {
            let _ = a.frame_tick(Time::from_us(125 * i));
        }
        assert_eq!(a.tx_in_flight(), 0);
        assert!(a.send(vc, vec![0; 9180], Time::from_ms(6)).is_ok());
    }

    #[test]
    fn interrupt_coalescing_batches() {
        let cfg = DriverConfig {
            coalesce_packets: 4,
            coalesce_delay: Duration::from_ms(100),
            ..DriverConfig::default()
        };
        let (mut a, mut b, vc) = pair(cfg);
        // One packet per frame: pending count builds across frames, so
        // the count threshold (4) governs. (Packets arriving in the same
        // frame share one interrupt — the handler drains all it finds.)
        let mut seen = 0;
        for i in 0..10u64 {
            let now = Time::from_us(125 * i);
            if i < 8 {
                a.send(vc, vec![i as u8; 100], now).unwrap();
            }
            let f = a.frame_tick(now);
            b.receive_line_octets(&f, now);
            while b.poll_rx().is_some() {
                seen += 1;
            }
        }
        assert_eq!(seen, 8);
        // 8 packets in batches of 4 → exactly 2 interrupts.
        assert_eq!(b.interrupts(), 2);
    }

    #[test]
    fn coalescing_timer_announces_stragglers() {
        let cfg = DriverConfig {
            coalesce_packets: 100,
            coalesce_delay: Duration::from_us(300),
            ..DriverConfig::default()
        };
        let (mut a, mut b, vc) = pair(cfg);
        a.send(vc, vec![7; 100], Time::ZERO).unwrap();
        let mut got = None;
        for i in 0..10u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick(now);
            b.receive_line_octets(&f, now);
            if let Some(p) = b.poll_rx() {
                got = Some((p, now));
                break;
            }
        }
        let (p, at) = got.expect("timer must announce the lone packet");
        // Announced by the delay bound, not the count.
        assert!(at >= Time::from_us(300));
        assert_eq!(p.announced_at, at);
        assert_eq!(b.interrupts(), 1);
    }

    #[test]
    fn rx_buffer_exhaustion_drops_at_host() {
        let cfg = DriverConfig {
            rx_buffers: 3,
            coalesce_packets: 1,
            ..DriverConfig::default()
        };
        let (mut a, mut b, vc) = pair(cfg);
        for i in 0..8u8 {
            a.send(vc, vec![i; 100], Time::ZERO).unwrap();
        }
        // Pump everything across but never consume at the application.
        for i in 0..10u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick(now);
            b.receive_line_octets(&f, now);
        }
        assert_eq!(b.host_drops(), 5, "3 buffers, 8 packets → 5 host drops");
        // Consuming frees buffers; new traffic flows again.
        let mut freed = 0;
        while b.poll_rx().is_some() {
            freed += 1;
        }
        assert_eq!(freed, 3);
        a.send(vc, vec![99; 100], Time::from_ms(2)).unwrap();
        let mut got_new = false;
        for i in 11..20u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick(now);
            b.receive_line_octets(&f, now);
            while let Some(p) = b.poll_rx() {
                if p.data == vec![99; 100] {
                    got_new = true;
                }
            }
        }
        assert!(got_new);
    }
}
