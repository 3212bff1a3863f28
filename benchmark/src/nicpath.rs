//! The real path: two `HostDriver`+`Nic` ends back to back at OC-12,
//! driven one SONET frame per loop pass.
//!
//! Each pass refills A until its transmit backlog holds two frames of
//! cells (or the descriptor ring is full), takes one frame from A with
//! `frame_tick`, feeds it to B with `receive_line_octets`, and drains B
//! with `poll_rx`, verifying every SDU. An epoch offers the workload's
//! fixed SDU sequence and ends when the line has drained.

use crate::report::Tally;
use crate::spans::{Layer, Probe};
use crate::stats::{hash_bytes, mix64, percentile};
use crate::traffic::{vc, NicWorkload, Traffic, Verifier};
use hni_aal::aal5;
use hni_atm::{Cell, CELL_SIZE};
use hni_core::{DriverConfig, DriverError, HostDriver, Nic, NicConfig};
use hni_sim::{Duration, FaultInjector, Time};
use hni_sonet::LineRate;
use std::collections::VecDeque;
use std::time::Instant;

/// The line rate every byte-path workload runs at.
pub const RATE: LineRate = LineRate::Oc12;
/// The sender keeps at least this many cells queued: two frames' worth.
pub const REFILL_CELLS: usize = 2 * RATE.payload_octets_per_frame() / CELL_SIZE;
/// Idle frames that let B's frame aligner and cell delineator lock on.
pub const SYNC_FRAMES: u64 = 12;
/// Frames pumped after the sender's backlog empties on `nic-mux`, so
/// the last cells clear delineation and the interrupt timer fires.
const DRAIN_FRAMES: u32 = 4;
/// Picoseconds per SONET frame.
const FRAME_PS: u64 = 125_000_000;

/// Driver settings of both ends.
pub fn driver_config() -> DriverConfig {
    DriverConfig {
        tx_ring: 256,
        rx_buffers: 4096,
        coalesce_packets: 32,
        coalesce_delay: Duration::from_us(250),
    }
}

/// Interface settings of both ends.
pub fn nic_config(w: &NicWorkload) -> NicConfig {
    let mut cfg = NicConfig::paper(RATE);
    cfg.cam_capacity = cfg.cam_capacity.max(w.n_vcs);
    cfg.reassembly_timeout = w.reassembly_timeout;
    cfg
}

/// The line clock at frame `tick`.
pub fn clock(tick: u64) -> Time {
    Time::from_ps(tick * FRAME_PS)
}

/// The fault injector of `nic-mux`, re-seeded at the start of every
/// epoch so each epoch sees the same faults.
pub fn injector(w: &NicWorkload, seed: u64) -> Option<FaultInjector> {
    w.mux
        .map(|m| FaultInjector::seeded(m.plan(), mix64(seed ^ 0xFA17_5EED)))
}

/// The interleaver of `nic-mux`: up to `in_flight` SDUs are open at
/// once and their cells leave one by one, round robin.
pub struct MuxSource {
    slots: VecDeque<(Vec<Cell>, usize)>,
    next_sdu: usize,
    in_flight: usize,
}

impl MuxSource {
    /// An empty interleaver.
    pub fn new(in_flight: usize) -> Self {
        MuxSource {
            slots: VecDeque::with_capacity(in_flight),
            next_sdu: 0,
            in_flight,
        }
    }

    /// The next SDU to open, if a slot is free and SDUs remain.
    pub fn wants_sdu(&self, n: usize) -> Option<usize> {
        (self.slots.len() < self.in_flight && self.next_sdu < n).then_some(self.next_sdu)
    }

    /// Open the SDU [`MuxSource::wants_sdu`] named, as segmented cells.
    pub fn load(&mut self, cells: Vec<Cell>) {
        self.slots.push_back((cells, 0));
        self.next_sdu += 1;
    }

    /// The next cell in interleaved order.
    pub fn next_cell(&mut self) -> Option<Cell> {
        let (cells, i) = self.slots.pop_front()?;
        let cell = cells[i].clone();
        if i + 1 < cells.len() {
            self.slots.push_back((cells, i + 1));
        }
        Some(cell)
    }

    /// Whether every SDU has left.
    pub fn done(&self, n: usize) -> bool {
        self.slots.is_empty() && self.next_sdu >= n
    }
}

/// Open SDU `seq` for the interleaver: build it, then segment it.
pub fn load_mux_sdu<P: Probe>(t: &Traffic, seq: usize, src: &mut MuxSource, probe: &mut P) {
    let m = probe.mark();
    let bytes = t.sdu_bytes(seq);
    probe.stop(Layer::AppBuild, m);
    let m = probe.mark();
    let cells = aal5::segment(vc(t.sdus[seq].vc as usize), &bytes, 0);
    probe.stop(Layer::AalSegment, m);
    src.load(cells);
}

/// One loop pass as the real path took it: what the replay repeats.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Line clock of the pass.
    pub now: Time,
    /// SDUs (or, on `nic-mux`, cells) offered before the frame left.
    pub offered: u32,
    /// Hash of the frame A put on the line.
    pub frame_hash: u64,
}

/// What one epoch did.
#[derive(Clone, Debug, Default)]
pub struct Epoch {
    /// Wall time of the whole epoch, ns.
    pub wall_ns: u64,
    /// Data cells A put on the line.
    pub data_cells: u64,
    /// Idle cells A filled frames with.
    pub idle_cells: u64,
    /// SDUs offered.
    pub offered: u64,
    /// SDUs delivered and verified.
    pub delivered: u64,
    /// Octets of verified SDUs.
    pub octets: u64,
    /// SDUs that failed a check.
    pub bad: u64,
    /// Digest of what was delivered, in order.
    pub digest: u64,
    /// Loop passes (one frame each).
    pub frames: u64,
    /// Median wall time of a loop pass, ns.
    pub frame_p50_ns: u64,
    /// 99th percentile wall time of a loop pass, ns.
    pub frame_p99_ns: u64,
    /// Interrupts B took.
    pub interrupts: u64,
    /// Packets B's driver dropped for lack of buffers.
    pub host_drops: u64,
    /// Cells B's delineator discarded for uncorrectable headers.
    pub hec_discards: u64,
    /// Whether the epoch ended by its safety limit rather than by
    /// draining.
    pub stalled: bool,
    /// The passes, when recorded for a replay.
    pub steps: Vec<Step>,
}

impl Epoch {
    /// Share of offered SDUs not delivered intact.
    pub fn fail_frac(&self) -> f64 {
        (self.offered - self.delivered.min(self.offered)) as f64 / self.offered.max(1) as f64
    }

    /// Data cells over all cells sent.
    pub fn line_util(&self) -> f64 {
        self.data_cells as f64 / (self.data_cells + self.idle_cells).max(1) as f64
    }

    /// The outcome fields that must repeat exactly for a given seed.
    pub fn tally(&self) -> Tally {
        Tally {
            offered: self.offered,
            delivered: self.delivered,
            bad: self.bad,
            digest: self.digest,
            reassembly_failures: None,
        }
    }
}

/// The two ends, set up and in sync.
pub struct RealPath<'a> {
    w: &'a NicWorkload,
    t: &'a Traffic,
    seed: u64,
    a: HostDriver,
    b: HostDriver,
    tick: u64,
    /// Wall time of each pass of the current epoch, ns (reused, so a
    /// longer run holds no more memory).
    frame_ns: Vec<u64>,
}

impl<'a> RealPath<'a> {
    /// Build both ends, open every VC on both, and send the idle frames
    /// that bring B into frame and cell sync.
    pub fn setup(w: &'a NicWorkload, t: &'a Traffic, seed: u64) -> Self {
        let cfg = nic_config(w);
        let mut a = HostDriver::new(Nic::new(cfg.clone()), driver_config());
        let mut b = HostDriver::new(Nic::new(cfg), driver_config());
        for i in 0..w.n_vcs {
            a.nic_mut().open_vc(vc(i)).expect("CAM sized for every VC");
            b.nic_mut().open_vc(vc(i)).expect("CAM sized for every VC");
        }
        for tick in 0..SYNC_FRAMES {
            let frame = a.frame_tick(clock(tick));
            b.receive_line_octets(&frame, clock(tick));
        }
        RealPath {
            w,
            t,
            seed,
            a,
            b,
            tick: SYNC_FRAMES,
            frame_ns: Vec::new(),
        }
    }

    /// Offer the epoch's traffic and pump frames until the line drains.
    /// With `record`, keeps the passes for a replay.
    pub fn run_epoch<P: Probe>(&mut self, probe: &mut P, record: bool) -> Epoch {
        let n = self.t.sdus.len();
        let tx0 = self.a.nic().tc_transmitter();
        let (data0, idle0) = (tx0.data_cells(), tx0.idle_cells());
        let (irq0, drops0) = (self.b.interrupts(), self.b.host_drops());
        let hec0 = self.b.nic().tc_receiver().delineator().discarded_in_sync();
        let mut verifier = Verifier::new(n);
        let mut steps = Vec::new();
        let mut inj = injector(self.w, self.seed);
        let mut mux = self.w.mux.map(|m| MuxSource::new(m.in_flight));
        let mut next = 0usize;
        let mut drain = 0u32;
        // A stalled epoch (a bug) must not hang the run.
        let limit = self.t.cells() / 100 + 10_000;
        self.frame_ns.clear();
        let mut stalled = false;
        let mut expiry_pass = false;
        let start = Instant::now();
        loop {
            let pass = Instant::now();
            let m_frame = probe.mark();
            let now = clock(self.tick);
            let offered = match (&mut mux, &mut inj) {
                (Some(src), Some(inj)) => self.offer_cells(src, inj, probe),
                _ => self.offer_sdus(&mut next, now, probe),
            };
            let m = probe.mark();
            let frame = self.a.frame_tick(now);
            probe.stop(Layer::HostFrameTick, m);
            if record {
                steps.push(Step {
                    now,
                    offered,
                    frame_hash: hash_bytes(&frame),
                });
            }
            let m = probe.mark();
            self.b.receive_line_octets(&frame, now);
            probe.stop(Layer::HostReceive, m);
            self.poll(&mut verifier, probe);
            self.frame_ns.push(pass.elapsed().as_nanos() as u64);
            probe.frame(self.tick, m_frame);
            self.tick += 1;
            if expiry_pass {
                break;
            }
            let finished = match &mux {
                None => verifier.delivered + verifier.bad >= n as u64,
                Some(src) => {
                    if src.done(n) && self.a.nic().tx_backlog_cells() == 0 {
                        drain += 1;
                    }
                    drain > DRAIN_FRAMES
                }
            };
            if finished {
                if mux.is_none() {
                    break;
                }
                // Let every stalled reassembly chain time out: the line
                // sits idle past the timeout, then one more pass runs
                // the expiry.
                self.tick += self.w.reassembly_timeout.as_ps() / FRAME_PS + 1;
                expiry_pass = true;
            }
            if self.frame_ns.len() as u64 > limit {
                stalled = true;
                break;
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.frame_ns.sort_unstable();
        let tx = self.a.nic().tc_transmitter();
        Epoch {
            wall_ns,
            data_cells: tx.data_cells() - data0,
            idle_cells: tx.idle_cells() - idle0,
            offered: n as u64,
            delivered: verifier.delivered,
            octets: verifier.octets,
            bad: verifier.bad,
            digest: verifier.digest,
            frames: self.frame_ns.len() as u64,
            frame_p50_ns: percentile(&self.frame_ns, 0.50),
            frame_p99_ns: percentile(&self.frame_ns, 0.99),
            interrupts: self.b.interrupts() - irq0,
            host_drops: self.b.host_drops() - drops0,
            hec_discards: self.b.nic().tc_receiver().delineator().discarded_in_sync() - hec0,
            stalled,
            steps,
        }
    }

    /// Refill A with whole SDUs through its host driver.
    fn offer_sdus<P: Probe>(&mut self, next: &mut usize, now: Time, probe: &mut P) -> u32 {
        let mut offered = 0;
        let ring = driver_config().tx_ring;
        while *next < self.t.sdus.len()
            && self.a.nic().tx_backlog_cells() < REFILL_CELLS
            && self.a.tx_in_flight() < ring
        {
            let m = probe.mark();
            let sdu = self.t.sdu_bytes(*next);
            probe.stop(Layer::AppBuild, m);
            let m = probe.mark();
            let sent = self.a.send(vc(self.t.sdus[*next].vc as usize), sdu, now);
            probe.stop(Layer::HostSend, m);
            match sent {
                Ok(()) => {
                    *next += 1;
                    offered += 1;
                }
                // The ring can also fill when reclaiming frees nothing.
                Err(DriverError::TxRingFull) => break,
                Err(e) => panic!("send on an open VC failed: {e}"),
            }
        }
        offered
    }

    /// Refill A with interleaved cells through the fault plan.
    fn offer_cells<P: Probe>(
        &mut self,
        src: &mut MuxSource,
        inj: &mut FaultInjector,
        probe: &mut P,
    ) -> u32 {
        let n = self.t.sdus.len();
        let mut offered = 0;
        while !src.done(n) && self.a.nic().tx_backlog_cells() < REFILL_CELLS {
            while let Some(seq) = src.wants_sdu(n) {
                load_mux_sdu(self.t, seq, src, probe);
            }
            let m = probe.mark();
            let cell = src.next_cell().expect("an open SDU has cells left");
            probe.stop(Layer::AppBuild, m);
            let m = probe.mark();
            self.a.nic_mut().inject_cell_faulted(&cell, inj);
            probe.stop(Layer::HostSend, m);
            offered += 1;
        }
        offered
    }

    /// Take every announced packet from B and verify it.
    fn poll<P: Probe>(&mut self, verifier: &mut Verifier, probe: &mut P) {
        loop {
            let m = probe.mark();
            let p = self.b.poll_rx();
            probe.stop(Layer::HostPoll, m);
            let Some(p) = p else { break };
            let m = probe.mark();
            verifier.check(self.t, p.vc, &p.data);
            self.b.nic_mut().recycle_sdu_buffer(p.data);
            probe.stop(Layer::AppVerify, m);
        }
    }
}
