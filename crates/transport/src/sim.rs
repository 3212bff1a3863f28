//! The closed-loop simulator: windowed AAL5 transfer with
//! retransmission over the receive-side machinery of `hni-core`.
//!
//! `n_vcs` connections each push `frames_per_vc` AAL5 frames through a
//! shared cell-slot-clocked link into one receive interface. The
//! receive side is the real thing: cells land in an
//! [`hni_core::BufferPool`] under the configured
//! [`DiscardPolicy`] (drop-tail / EPD / PPD),
//! every cell reconciles into exactly one [`CellLedger`] fate, and the
//! same telemetry spans and profiler charges fire for a retransmitted
//! cell as for a first transmission. What is *new* relative to
//! `rxsim`'s open loop is the feedback path: completed frames generate
//! ack cells on a reverse VC (cumulative + 64-bit selective-ack
//! bitmap), and the sender runs a sliding window per VC with an
//! adaptive retransmission timer ([`RtoEstimator`]) — Jacobson
//! estimation, Karn's rule, capped exponential backoff, and
//! fast retransmit on duplicate acks.
//!
//! ## Determinism
//!
//! Four private RNG streams (forward faults, reverse faults, forward
//! jitter, reverse jitter) derive from the one config seed; ties in the
//! event queue break FIFO. Reports are byte-identical across reruns,
//! and with `FaultPlan::NONE` and jitterless delay models a run draws
//! **zero** random values ([`TransportReport::rng_draws`]).
//!
//! ## Abstractions
//!
//! Frame fates are not modelled here: each transmission attempt is one
//! frame of the receive-side frame-fate machine `rxsim` also drives
//! ([`FrameFates`]), which owns the pool, the discard policies,
//! validation, expiry and the ledger. The two receive models therefore
//! agree on every fate by construction. What this module adds on top is
//! the closed loop: the sender, acks, delay lines, the choice between
//! delivering a frame and discarding it as superseded, and an expiry
//! sweep every full timeout.
//!
//! Relative to `rxsim` the receive interface is simplified where
//! closed-loop dynamics do not care: cells are processed at arrival
//! (no input-FIFO or engine-instruction queueing), so a frame's last
//! cell seals and validates it at once, and delivered frames skip the
//! bus-burst model. At WAN and satellite scales the round trip
//! dominates those microseconds by three to six orders of magnitude.

use std::collections::VecDeque;

use hni_aal::AalType;
use hni_core::fate::{Arrival, Delivery, FrameFates};
use hni_core::{CellLedger, DiscardPolicy, PoolConfig};
use hni_faults::{DelayLine, DelayModel, FaultInjector, FaultPlan};
use hni_sim::{Duration, EventQueue, Time};
use hni_sonet::LineRate;
use hni_telemetry::{
    Activity, Component, HdrHist, NullProfiler, NullTracer, Profiler, Stage, TailReservoir,
    TraceEvent, Tracer, VcMetrics,
};

use crate::rto::{RtoConfig, RtoEstimator};
use crate::window::SendWindow;

/// Bits in one cell on the wire (53 octets).
const CELL_BITS: u64 = 424;

/// Everything a closed-loop run needs to be reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportConfig {
    /// Line rate of the (shared) forward link.
    pub rate: LineRate,
    /// Concurrent connections.
    pub n_vcs: usize,
    /// Frames each connection must deliver.
    pub frames_per_vc: usize,
    /// SDU octets per frame (AAL5: +8 trailer octets, padded to 48).
    pub frame_len: usize,
    /// Sliding-window size, in frames in flight per VC.
    pub window: usize,
    /// Receive-side reassembly pool.
    pub pool: PoolConfig,
    /// Receive-side discard policy.
    pub policy: DiscardPolicy,
    /// Fault plan applied to forward (data) cells.
    pub fwd_plan: FaultPlan,
    /// Fault plan applied to reverse (ack) cells.
    pub rev_plan: FaultPlan,
    /// Propagation delay of the forward path.
    pub fwd_delay: DelayModel,
    /// Propagation delay of the reverse path.
    pub rev_delay: DelayModel,
    /// Retransmission-timer policy.
    pub rto: RtoConfig,
    /// Duplicate cumulative acks that trigger a fast retransmit.
    pub dupack_threshold: u32,
    /// Transmissions per frame before the sender gives up on it.
    pub max_attempts: u32,
    /// Receive-side reassembly-expiry timeout (idle chains are purged).
    pub reassembly_timeout: Duration,
    /// Hard stop: a run past this simulated time is cut off (and
    /// reported as not completed) rather than allowed to livelock.
    pub max_sim_time: Duration,
    /// Phase offset between VC start times: VC `v` may not transmit
    /// before `v × start_stagger`. Zero (the default) starts every VC
    /// in lockstep — which synchronises every frame boundary and makes
    /// occupancy at admission instants unrepresentative, the same
    /// pathology R-R1's staggered workload avoids open loop.
    pub start_stagger: Duration,
    /// Master seed; the four internal RNG streams derive from it.
    pub seed: u64,
}

impl TransportConfig {
    /// Paper-flavoured defaults on a zero-length path: OC-12-class
    /// pool (256 × 32-cell buffers), drop-tail, 4 VCs × 16 frames of
    /// 1536 octets, window 4, no faults, no propagation delay.
    pub fn paper(rate: LineRate) -> Self {
        TransportConfig {
            rate,
            n_vcs: 4,
            frames_per_vc: 16,
            frame_len: 1536,
            window: 4,
            pool: PoolConfig {
                total_buffers: 256,
                cells_per_buffer: 32,
            },
            policy: DiscardPolicy::DropTail,
            fwd_plan: FaultPlan::NONE,
            rev_plan: FaultPlan::NONE,
            fwd_delay: DelayModel::NONE,
            rev_delay: DelayModel::NONE,
            rto: RtoConfig::DEFAULT,
            dupack_threshold: 3,
            max_attempts: 10,
            reassembly_timeout: Duration::from_ms(10),
            max_sim_time: Duration::from_s(120),
            start_stagger: Duration::ZERO,
            seed: 11,
        }
    }

    /// AAL5 cells per frame under this configuration.
    pub fn cells_per_frame(&self) -> u32 {
        AalType::Aal5.cells_for_sdu(self.frame_len) as u32
    }

    /// Put the transfer on a path: both directions get `path`, and the
    /// RTO policy and reassembly timeout are retuned to the path's
    /// worst-case RTT plus the serialization time of one window's worth
    /// of every VC's frames (the LAN regime, where serialization — not
    /// propagation — sets the RTT).
    pub fn with_path(mut self, path: DelayModel) -> Self {
        self.fwd_delay = path;
        self.rev_delay = path;
        let serial = self
            .rate
            .cell_slot_time()
            .times(self.cells_per_frame() as u64 * self.n_vcs as u64 * self.window as u64);
        let rtt = path.max_delay().times(2) + serial;
        self.rto = RtoConfig::for_rtt(rtt);
        self.reassembly_timeout = rtt.max(Duration::from_ms(10));
        self
    }

    fn validate(&self) {
        assert!(self.n_vcs >= 1, "need at least one VC");
        assert!(self.frames_per_vc >= 1, "need at least one frame");
        assert!(self.frame_len >= 1, "empty frames carry nothing");
        assert!(self.window >= 1, "window of zero frames can never send");
        assert!(self.max_attempts >= 1, "frames need at least one attempt");
        assert!(
            self.reassembly_timeout > Duration::ZERO,
            "closed-loop runs need the expiry timer: lost tails would pin \
             pool buffers forever"
        );
        self.fwd_plan.validate();
        self.rev_plan.validate();
    }
}

/// What one closed-loop run did, sender and receiver sides together.
#[derive(Clone, Debug)]
pub struct TransportReport {
    /// Frames the sender was asked to deliver (`n_vcs × frames_per_vc`).
    pub offered_frames: u64,
    /// Frames the sender saw acknowledged (cumulative or selective).
    pub acked_frames: u64,
    /// Frames the sender gave up on after `max_attempts`.
    pub abandoned_frames: u64,
    /// Unique frames the receiver delivered to the host.
    pub delivered_frames: u64,
    /// Intact completions for frames an earlier copy had delivered.
    pub duplicate_frames: u64,
    /// Frame transmissions, first attempts included.
    pub attempts: u64,
    /// Transmissions beyond each frame's first (the recovery load).
    pub retransmits: u64,
    /// Retransmission-timer expiries that took action.
    pub timeouts: u64,
    /// Fast retransmits triggered by duplicate acks.
    pub fast_retransmits: u64,
    /// RTT samples fed to the estimators (Karn-filtered).
    pub rtt_samples: u64,
    /// Mean of the final per-VC smoothed RTTs, in µs (0 if unsampled).
    pub srtt_us: f64,
    /// Unique delivered SDU octets.
    pub delivered_octets: u64,
    /// Unique delivered SDU bits over the whole run span.
    pub goodput_bps: f64,
    /// `retransmits / attempts` — the retransmission rate.
    pub retx_rate: f64,
    /// Ack cells the receiver emitted.
    pub acks_sent: u64,
    /// Ack cells the reverse path destroyed (lost or corrupted).
    pub acks_lost: u64,
    /// Time of the last unique delivery.
    pub finished_at: Time,
    /// Time of the last processed event.
    pub run_end: Time,
    /// Every flow finished (acked or abandoned) before `max_sim_time`.
    pub completed: bool,
    /// Random values drawn across all four streams (0 on the clean,
    /// jitterless path).
    pub rng_draws: u64,
    /// Latency of unique deliveries, first transmission to delivery.
    pub frame_latency: HdrHist,
    /// Always-on exemplar reservoir over the same latencies.
    pub tail: TailReservoir,
    /// Always-on per-VC cell accounting at the receive interface.
    pub vc_cells: VcMetrics,
    /// Per-cell conservation ledger, retransmit provenance included.
    pub ledger: CellLedger,
}

#[derive(Clone, Copy, Debug, Default)]
struct FrameState {
    attempts: u32,
    first_sent: Time,
    /// Fully sent at least once and not yet acked/abandoned.
    outstanding: bool,
    retx_pending: bool,
    abandoned: bool,
}

struct CurTx {
    seq: usize,
    attempt: u32,
    next_cell: u32,
    retx: bool,
}

struct Flow {
    window: SendWindow,
    rto: RtoEstimator,
    frames: Vec<FrameState>,
    retx_q: VecDeque<usize>,
    cur: Option<CurTx>,
    timer_epoch: u32,
    timer_armed: bool,
    // Receiver side of the same connection.
    rcv_nxt: usize,
    delivered: Vec<bool>,
}

enum Ev {
    /// One transmit cell slot on the shared forward link.
    TxSlot,
    /// A data cell reaches the receive interface.
    Data {
        attempt: u32,
        cell: u32,
        is_last: bool,
        corrupted: bool,
    },
    /// An ack cell reaches the sender.
    Ack { vc: u32, cum: u32, sack: u64 },
    /// Per-VC retransmission-timer check.
    Timer { vc: u32, epoch: u32 },
    /// A staggered VC becomes eligible: poke the transmit clock.
    Kick,
    /// Receive-side reassembly-expiry sweep.
    Expire,
}

struct Stats {
    acked_frames: u64,
    abandoned_frames: u64,
    delivered_frames: u64,
    duplicate_frames: u64,
    attempts: u64,
    retransmits: u64,
    timeouts: u64,
    fast_retransmits: u64,
    rtt_samples: u64,
    delivered_octets: u64,
    acks_sent: u64,
    acks_lost: u64,
}

struct Sim {
    cfg: TransportConfig,
    slot: Duration,
    cells_per_frame: u32,
    q: EventQueue<Ev>,
    flows: Vec<Flow>,
    /// Receive side: one frame per transmission attempt, keyed by the
    /// attempt's index.
    fate: FrameFates,
    fwd_inj: FaultInjector,
    rev_inj: FaultInjector,
    fwd_delay: DelayLine,
    rev_delay: DelayLine,
    stats: Stats,
    rr: usize,
    link_free: Time,
    fwd_horizon: Time,
    rev_horizon: Time,
    tx_scheduled: bool,
    tick_pending: bool,
    last_event: Time,
    finished_at: Time,
    frame_latency: HdrHist,
    tail: TailReservoir,
    vc_cells: VcMetrics,
}

/// Run the closed loop with telemetry and profiling off.
pub fn run_transport(cfg: &TransportConfig) -> TransportReport {
    run_transport_full(cfg, &mut NullTracer, &mut NullProfiler)
}

/// [`run_transport`] with probes attached: a tracer and a profiler. The
/// receive side charges the same components (`RxLink`, `RxPool`) and
/// emits the same stages a first transmission would in `rxsim` — a
/// retransmitted cell is indistinguishable on the telemetry plane.
pub fn run_transport_full(
    cfg: &TransportConfig,
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) -> TransportReport {
    cfg.validate();
    let mut sim = Sim::new(cfg);
    sim.run(tracer, profiler)
}

impl Sim {
    fn new(cfg: &TransportConfig) -> Self {
        let flows = (0..cfg.n_vcs)
            .map(|_| Flow {
                window: SendWindow::new(cfg.window, cfg.frames_per_vc),
                rto: RtoEstimator::new(cfg.rto),
                frames: vec![FrameState::default(); cfg.frames_per_vc],
                retx_q: VecDeque::new(),
                cur: None,
                timer_epoch: 0,
                timer_armed: false,
                rcv_nxt: 0,
                delivered: vec![false; cfg.frames_per_vc],
            })
            .collect();
        Sim {
            cfg: *cfg,
            slot: cfg.rate.cell_slot_time(),
            cells_per_frame: cfg.cells_per_frame(),
            q: EventQueue::new(),
            flows,
            fate: FrameFates::new(cfg.pool, cfg.policy),
            fwd_inj: FaultInjector::seeded(cfg.fwd_plan, cfg.seed ^ 0x7A11_DA7A_0000_0001),
            rev_inj: FaultInjector::seeded(cfg.rev_plan, cfg.seed ^ 0x7A11_ACC5_0000_0002),
            fwd_delay: DelayLine::seeded(cfg.fwd_delay, cfg.seed ^ 0x7A11_DE1A_0000_0003),
            rev_delay: DelayLine::seeded(cfg.rev_delay, cfg.seed ^ 0x7A11_DE1A_0000_0004),
            stats: Stats {
                acked_frames: 0,
                abandoned_frames: 0,
                delivered_frames: 0,
                duplicate_frames: 0,
                attempts: 0,
                retransmits: 0,
                timeouts: 0,
                fast_retransmits: 0,
                rtt_samples: 0,
                delivered_octets: 0,
                acks_sent: 0,
                acks_lost: 0,
            },
            rr: 0,
            link_free: Time::ZERO,
            fwd_horizon: Time::ZERO,
            rev_horizon: Time::ZERO,
            tx_scheduled: false,
            tick_pending: false,
            last_event: Time::ZERO,
            finished_at: Time::ZERO,
            frame_latency: HdrHist::new(),
            tail: TailReservoir::paper(),
            vc_cells: VcMetrics::new(),
        }
    }

    fn run(&mut self, tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> TransportReport {
        self.q.schedule(Time::ZERO, Ev::TxSlot);
        self.tx_scheduled = true;
        if self.cfg.start_stagger > Duration::ZERO {
            for vc in 1..self.cfg.n_vcs {
                self.q.schedule(self.vc_start(vc), Ev::Kick);
            }
        }
        let cap = Time::ZERO + self.cfg.max_sim_time;
        let mut overran = false;
        while let Some((now, ev)) = self.q.pop() {
            if now > cap {
                // Hard stop: anything still on the wire is abandoned in
                // flight so the ledger stays exact.
                overran = true;
                let mut in_flight = u64::from(matches!(ev, Ev::Data { .. }));
                while let Some((_, ev)) = self.q.pop() {
                    in_flight += u64::from(matches!(ev, Ev::Data { .. }));
                }
                self.fate.abandon_in_flight(in_flight);
                break;
            }
            match ev {
                Ev::TxSlot => {
                    self.last_event = now;
                    self.on_tx_slot(now)
                }
                Ev::Data {
                    attempt,
                    cell,
                    is_last,
                    corrupted,
                } => {
                    self.last_event = now;
                    self.on_data(now, attempt, cell, is_last, corrupted, tracer, profiler)
                }
                Ev::Ack { vc, cum, sack } => {
                    self.last_event = now;
                    self.on_ack(now, vc as usize, cum as usize, sack)
                }
                Ev::Timer { vc, epoch } => {
                    // A superseded timer pop is a no-op; it must not
                    // stretch the reported run span.
                    if epoch == self.flows[vc as usize].timer_epoch {
                        self.last_event = now;
                    }
                    self.on_timer(now, vc as usize, epoch)
                }
                Ev::Expire => {
                    self.last_event = now;
                    self.on_expire(now, tracer, profiler)
                }
                Ev::Kick => {
                    self.last_event = now;
                    self.kick_tx(now)
                }
            }
        }
        // Whatever never resolved still owes a fate for its stored cells.
        self.fate.drain(self.last_event, profiler);
        let completed = !overran && self.flows.iter().all(|f| f.window.done());
        let offered = (self.cfg.n_vcs * self.cfg.frames_per_vc) as u64;
        let span_s = self.last_event.as_s_f64();
        let goodput = if span_s > 0.0 {
            self.stats.delivered_octets as f64 * 8.0 / span_s
        } else {
            0.0
        };
        let retx_rate = if self.stats.attempts > 0 {
            self.stats.retransmits as f64 / self.stats.attempts as f64
        } else {
            0.0
        };
        let sampled: Vec<f64> = self
            .flows
            .iter()
            .filter_map(|f| f.rto.srtt().map(|d| d.as_us_f64()))
            .collect();
        let srtt_us = if sampled.is_empty() {
            0.0
        } else {
            sampled.iter().sum::<f64>() / sampled.len() as f64
        };
        TransportReport {
            offered_frames: offered,
            acked_frames: self.stats.acked_frames,
            abandoned_frames: self.stats.abandoned_frames,
            delivered_frames: self.stats.delivered_frames,
            duplicate_frames: self.stats.duplicate_frames,
            attempts: self.stats.attempts,
            retransmits: self.stats.retransmits,
            timeouts: self.stats.timeouts,
            fast_retransmits: self.stats.fast_retransmits,
            rtt_samples: self.stats.rtt_samples,
            srtt_us,
            delivered_octets: self.stats.delivered_octets,
            goodput_bps: goodput,
            retx_rate,
            acks_sent: self.stats.acks_sent,
            acks_lost: self.stats.acks_lost,
            finished_at: self.finished_at,
            run_end: self.last_event,
            completed,
            rng_draws: self.fwd_inj.rng_draws()
                + self.rev_inj.rng_draws()
                + self.fwd_delay.rng_draws()
                + self.rev_delay.rng_draws(),
            frame_latency: self.frame_latency.clone(),
            tail: self.tail.clone(),
            vc_cells: self.vc_cells.clone(),
            ledger: self.fate.ledger,
        }
    }

    // ---- sender side ----------------------------------------------

    /// When VC `vc` becomes eligible to transmit.
    fn vc_start(&self, vc: usize) -> Time {
        Time::ZERO + self.cfg.start_stagger.times(vc as u64)
    }

    /// Does `vc` have a cell it could put on the wire right now?
    /// Lazily drops retransmission-queue heads that got acknowledged
    /// (or abandoned) while queued.
    fn flow_sendable(&mut self, now: Time, vc: usize) -> bool {
        if now < self.vc_start(vc) {
            return false;
        }
        let f = &mut self.flows[vc];
        if f.cur.is_some() || f.window.can_send_new() {
            return true;
        }
        while let Some(&s) = f.retx_q.front() {
            if f.window.is_acked(s) {
                f.frames[s].retx_pending = false;
                f.retx_q.pop_front();
            } else {
                return true;
            }
        }
        false
    }

    fn any_sendable(&mut self, now: Time) -> bool {
        (0..self.cfg.n_vcs).any(|vc| self.flow_sendable(now, vc))
    }

    /// Re-arm the transmit clock after new work appeared (ack opened
    /// the window, timer queued a retransmission).
    fn kick_tx(&mut self, now: Time) {
        if !self.tx_scheduled && self.any_sendable(now) {
            let at = self.link_free.max(now);
            self.q.schedule(at, Ev::TxSlot);
            self.tx_scheduled = true;
        }
    }

    fn on_tx_slot(&mut self, now: Time) {
        let n = self.cfg.n_vcs;
        let mut served = false;
        for k in 0..n {
            let vc = (self.rr + k) % n;
            if self.flow_sendable(now, vc) {
                self.rr = (vc + 1) % n;
                self.emit_cell(now, vc);
                served = true;
                break;
            }
        }
        self.link_free = now + self.slot;
        if served && self.any_sendable(now) {
            self.q.schedule(self.link_free, Ev::TxSlot);
        } else {
            self.tx_scheduled = false;
        }
    }

    /// Put one cell of `vc`'s current (or next) frame attempt on the
    /// wire, running it through the forward fault plan and delay line.
    fn emit_cell(&mut self, now: Time, vc: usize) {
        let cells = self.cells_per_frame;
        let f = &mut self.flows[vc];
        if f.cur.is_none() {
            // Recovery outranks new data.
            let (seq, retx) = loop {
                match f.retx_q.front().copied() {
                    Some(s) if f.window.is_acked(s) => {
                        f.frames[s].retx_pending = false;
                        f.retx_q.pop_front();
                    }
                    Some(s) => {
                        f.frames[s].retx_pending = false;
                        f.retx_q.pop_front();
                        break (s, true);
                    }
                    None => {
                        let s = f.window.take_next();
                        f.frames[s].first_sent = now;
                        break (s, false);
                    }
                }
            };
            f.frames[seq].attempts += 1;
            f.frames[seq].outstanding = false;
            // Telemetry labels a frame by its global index.
            let pkt = vc * self.cfg.frames_per_vc + seq;
            let attempt = self.fate.open(vc as u32, pkt, cells) as u32;
            self.stats.attempts += 1;
            if retx {
                self.stats.retransmits += 1;
            }
            f.cur = Some(CurTx {
                seq,
                attempt,
                next_cell: 0,
                retx,
            });
        }
        let cur = f.cur.as_mut().expect("attempt just started");
        let cell = cur.next_cell;
        cur.next_cell += 1;
        let is_last = cur.next_cell == cells;
        let attempt = cur.attempt;
        let retx = cur.retx;
        let seq = cur.seq;
        if is_last {
            f.cur = None;
        }
        self.fate.ledger.injected += 1;
        if retx {
            self.fate.ledger.injected_retx += 1;
        }
        let fate = self.fwd_inj.fate(CELL_BITS);
        if fate.lost {
            self.fate.ledger.dropped_link += 1;
        } else {
            let corrupted = !fate.flipped_bits.is_empty();
            // Jitter varies per-cell delay, but the wire is FIFO: an
            // ATM link never reorders cells, so each arrival is clamped
            // behind the previous one (jitter then models queueing
            // ahead). Displacement is a *fault* and deliberately lands
            // after the clamp, so it still reorders.
            let mut arrive = now + self.slot + self.fwd_delay.delay();
            arrive = arrive.max(self.fwd_horizon);
            self.fwd_horizon = arrive;
            arrive += self.slot.times(fate.displaced as u64);
            self.q.schedule(
                arrive,
                Ev::Data {
                    attempt,
                    cell,
                    is_last,
                    corrupted,
                },
            );
            if fate.duplicated {
                // The wire made a copy: it owes its own fate, arrives
                // one slot later and is never the frame's end (the
                // inflated cell count is validation's problem).
                self.fate.ledger.injected += 1;
                if retx {
                    self.fate.ledger.injected_retx += 1;
                }
                self.q.schedule(
                    arrive + self.slot,
                    Ev::Data {
                        attempt,
                        cell,
                        is_last: false,
                        corrupted,
                    },
                );
            }
        }
        if is_last {
            self.flows[vc].frames[seq].outstanding = true;
            if !self.flows[vc].timer_armed {
                self.arm_timer(now, vc);
            }
        }
    }

    fn arm_timer(&mut self, now: Time, vc: usize) {
        let f = &mut self.flows[vc];
        f.timer_epoch = f.timer_epoch.wrapping_add(1);
        f.timer_armed = true;
        let at = now + f.rto.rto();
        self.q.schedule(
            at,
            Ev::Timer {
                vc: vc as u32,
                epoch: f.timer_epoch,
            },
        );
    }

    fn on_timer(&mut self, now: Time, vc: usize, epoch: u32) {
        {
            let f = &mut self.flows[vc];
            if epoch != f.timer_epoch {
                return; // superseded by a restart
            }
            f.timer_armed = false;
            if f.window.done() {
                return;
            }
        }
        let una = self.flows[vc].window.una();
        let in_flight = una < self.flows[vc].window.next_seq();
        if in_flight {
            let fire = {
                let fr = &self.flows[vc].frames[una];
                fr.outstanding && !fr.retx_pending
            };
            if fire {
                self.stats.timeouts += 1;
                let f = &mut self.flows[vc];
                if f.frames[una].attempts >= self.cfg.max_attempts {
                    // Give up: the frame is lost to the application,
                    // the transfer moves on from the base RTO.
                    f.frames[una].abandoned = true;
                    f.frames[una].outstanding = false;
                    f.window.mark_acked(una);
                    self.stats.abandoned_frames += 1;
                    f.rto.on_cumulative_ack();
                } else {
                    f.frames[una].retx_pending = true;
                    f.retx_q.push_back(una);
                    f.rto.back_off();
                }
            }
            if !self.flows[vc].window.done() {
                self.arm_timer(now, vc);
            }
            self.kick_tx(now);
        }
    }

    fn on_ack(&mut self, now: Time, vc: usize, cum: usize, sack: u64) {
        let total = self.cfg.frames_per_vc;
        if self.flows[vc].window.done() {
            return;
        }
        let old_una = self.flows[vc].window.una();
        let advanced = cum > old_una;
        if advanced {
            // Newly covered frames: count them and pick the freshest
            // Karn-eligible RTT sample (transmitted exactly once).
            let mut sample = None;
            {
                let f = &mut self.flows[vc];
                for seq in old_una..cum.min(total) {
                    if !f.window.is_acked(seq) {
                        self.stats.acked_frames += 1;
                        f.frames[seq].outstanding = false;
                        if f.frames[seq].attempts == 1 {
                            sample = Some(now.saturating_since(f.frames[seq].first_sent));
                        }
                    }
                }
                f.window.on_cum_ack(cum);
                if let Some(rtt) = sample {
                    f.rto.sample(rtt);
                }
                f.rto.on_cumulative_ack();
            }
            if sample.is_some() {
                self.stats.rtt_samples += 1;
            }
            // Progress: restart the timer for the new oldest frame.
            if !self.flows[vc].window.done()
                && self.flows[vc].window.una() < self.flows[vc].window.next_seq()
            {
                self.arm_timer(now, vc);
            } else {
                // Nothing outstanding: quiesce (stale timers are
                // invalidated by the epoch bump).
                self.flows[vc].timer_epoch = self.flows[vc].timer_epoch.wrapping_add(1);
                self.flows[vc].timer_armed = false;
            }
        }
        // Selective acks sit above the cumulative edge.
        for i in 0..64u32 {
            if sack & (1u64 << i) != 0 {
                let seq = cum + 1 + i as usize;
                if seq < total && !self.flows[vc].window.is_acked(seq) {
                    self.flows[vc].window.mark_acked(seq);
                    self.flows[vc].frames[seq].outstanding = false;
                    self.stats.acked_frames += 1;
                }
            }
        }
        if !advanced && cum == self.flows[vc].window.una() {
            // Duplicate cumulative ack for the current hole.
            let count = self.flows[vc].window.dup_ack();
            if count == self.cfg.dupack_threshold {
                let una = self.flows[vc].window.una();
                let eligible = {
                    let fr = &self.flows[vc].frames[una];
                    una < total
                        && fr.outstanding
                        && !fr.retx_pending
                        && fr.attempts < self.cfg.max_attempts
                };
                if eligible {
                    let f = &mut self.flows[vc];
                    f.frames[una].retx_pending = true;
                    f.retx_q.push_back(una);
                    f.window.reset_dup_acks();
                    self.stats.fast_retransmits += 1;
                }
            }
        }
        self.kick_tx(now);
    }

    // ---- receiver side --------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        now: Time,
        attempt: u32,
        cell: u32,
        is_last: bool,
        corrupted: bool,
        tracer: &mut dyn Tracer,
        profiler: &mut dyn Profiler,
    ) {
        let key = attempt as usize;
        let (conn, pkt) = self.fate.label(key);
        // Always-on per-VC accounting at the wire, as in `rxsim`.
        self.vc_cells.record_cell(conn, 53);
        if profiler.enabled() {
            let from = Time::from_ps(now.as_ps().saturating_sub(self.slot.as_ps()));
            profiler.charge(Component::RxLink, Activity::Transfer, from, self.slot);
        }
        if tracer.enabled() {
            tracer.record(
                TraceEvent::instant(now, Stage::RxCellArrive)
                    .vc(conn)
                    .pkt(pkt)
                    .cell(cell as u64),
            );
        }
        let arrival = self.fate.arrive(now, key, cell as u64, corrupted, tracer);
        if arrival.starts_frame() && !self.tick_pending {
            self.q
                .schedule(now + self.cfg.reassembly_timeout, Ev::Expire);
            self.tick_pending = true;
        }
        match arrival {
            Arrival::Stale => return,
            Arrival::Refused { .. } => {}
            Arrival::Admitted { .. } => {
                self.fate.store(now, key, tracer, profiler);
            }
        }
        // Cells are processed at arrival, so the last one seals and
        // validates the frame at once. A frame that fails gets no ack:
        // the sender's timer or later duplicate acks recover it.
        if is_last
            && self.fate.seal(now, key, profiler).is_some()
            && self.fate.validate(now, key, tracer, profiler)
        {
            self.complete_attempt(now, key, tracer, profiler);
        }
    }

    /// An attempt reassembled and validated intact: deliver (or discard
    /// as superseded), then ack.
    fn complete_attempt(
        &mut self,
        now: Time,
        key: usize,
        tracer: &mut dyn Tracer,
        profiler: &mut dyn Profiler,
    ) {
        let (conn, pkt) = self.fate.label(key);
        let vc = conn as usize;
        let seq = pkt % self.cfg.frames_per_vc;
        // An earlier copy already reached the host: same cells, second
        // fate — the superseded bucket keeps the ledger exact.
        let to = if self.flows[vc].delivered[seq] {
            Delivery::Superseded
        } else {
            Delivery::Host
        };
        self.fate.deliver(now, key, to, profiler);
        if tracer.enabled() {
            tracer.record(
                TraceEvent::instant(now, Stage::RxReasmComplete)
                    .vc(conn)
                    .pkt(pkt)
                    .arg(self.cells_per_frame as u64),
            );
        }
        let f = &mut self.flows[vc];
        if to == Delivery::Superseded {
            self.stats.duplicate_frames += 1;
        } else {
            f.delivered[seq] = true;
            while f.rcv_nxt < self.cfg.frames_per_vc && f.delivered[f.rcv_nxt] {
                f.rcv_nxt += 1;
            }
            self.stats.delivered_frames += 1;
            self.stats.delivered_octets += self.cfg.frame_len as u64;
            self.finished_at = now;
            let lat = now.saturating_since(f.frames[seq].first_sent);
            self.frame_latency.record_duration(lat);
            self.tail.record(conn, pkt as u32, lat, now);
            if tracer.enabled() {
                tracer.record(
                    TraceEvent::instant(now, Stage::CompletionPush)
                        .vc(conn)
                        .pkt(pkt)
                        .arg(self.cfg.frame_len as u64),
                );
            }
        }
        self.send_ack(now, vc);
    }

    /// Emit one ack cell on the reverse VC: cumulative edge plus a
    /// 64-frame selective-ack bitmap, through the reverse fault plan
    /// and delay line.
    fn send_ack(&mut self, now: Time, vc: usize) {
        let f = &self.flows[vc];
        let cum = f.rcv_nxt;
        let mut sack = 0u64;
        for i in 0..64usize {
            let s = cum + 1 + i;
            if s >= self.cfg.frames_per_vc {
                break;
            }
            if f.delivered[s] {
                sack |= 1u64 << i;
            }
        }
        self.stats.acks_sent += 1;
        let fate = self.rev_inj.fate(CELL_BITS);
        if fate.lost || !fate.flipped_bits.is_empty() {
            // A corrupted ack cell fails its checks at the sender and
            // is as good as lost.
            self.stats.acks_lost += 1;
            return;
        }
        let mut arrive = now + self.slot + self.rev_delay.delay();
        arrive = arrive.max(self.rev_horizon);
        self.rev_horizon = arrive;
        arrive += self.slot.times(fate.displaced as u64);
        let ev = Ev::Ack {
            vc: vc as u32,
            cum: cum as u32,
            sack,
        };
        self.q.schedule(arrive, ev);
        if fate.duplicated {
            self.q.schedule(
                arrive + self.slot,
                Ev::Ack {
                    vc: vc as u32,
                    cum: cum as u32,
                    sack,
                },
            );
        }
    }

    /// Receive-side expiry sweep, re-armed every full timeout while any
    /// frame is still under reassembly.
    fn on_expire(&mut self, now: Time, tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) {
        let timeout = self.cfg.reassembly_timeout;
        if self.fate.expire(now, timeout, tracer, profiler) {
            self.q.schedule(now + timeout, Ev::Expire);
        } else {
            self.tick_pending = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_faults::scenarios;

    fn small(rate: LineRate) -> TransportConfig {
        let mut cfg = TransportConfig::paper(rate);
        cfg.n_vcs = 2;
        cfg.frames_per_vc = 8;
        cfg.frame_len = 512;
        // Scale the RTO to the (zero-propagation) path so recovery is
        // ack-driven, not pinned to the LAN-default 10 ms initial RTO.
        cfg.with_path(DelayModel::NONE)
    }

    #[test]
    fn clean_run_delivers_everything_without_randomness() {
        let cfg = small(LineRate::Oc12);
        let rep = run_transport(&cfg);
        assert!(rep.completed);
        assert_eq!(rep.delivered_frames, rep.offered_frames);
        assert_eq!(rep.acked_frames, rep.offered_frames);
        assert_eq!(rep.abandoned_frames, 0);
        assert_eq!(rep.retransmits, 0, "nothing to recover on a clean path");
        assert_eq!(rep.timeouts, 0);
        assert_eq!(rep.rng_draws, 0, "clean jitterless path must be RNG-free");
        assert!(rep.ledger.reconciles(), "ledger: {:?}", rep.ledger);
        assert_eq!(rep.ledger.injected_retx, 0);
        assert!(rep.goodput_bps > 0.0);
        assert_eq!(rep.frame_latency.count(), rep.offered_frames);
    }

    #[test]
    fn lossy_path_recovers_by_retransmission() {
        let mut cfg = small(LineRate::Oc12);
        cfg.fwd_plan = FaultPlan::loss(0.02);
        cfg.seed = 7;
        let rep = run_transport(&cfg);
        assert!(rep.completed, "2% loss must not stall an 8-frame window");
        assert_eq!(
            rep.delivered_frames + rep.abandoned_frames,
            rep.offered_frames
        );
        assert!(rep.retransmits > 0, "loss with no recovery means no loop");
        assert!(rep.ledger.reconciles(), "ledger: {:?}", rep.ledger);
        assert!(rep.ledger.injected_retx > 0);
        assert!(rep.ledger.injected_retx <= rep.ledger.injected);
        assert!(rep.rng_draws > 0);
    }

    #[test]
    fn satellite_preset_survives_heavy_loss() {
        let mut cfg = small(LineRate::Oc3);
        cfg.window = 8;
        cfg.fwd_plan = FaultPlan::loss(0.10);
        cfg.rev_plan = FaultPlan::loss(0.10);
        cfg = cfg.with_path(scenarios::satellite_path());
        cfg.max_sim_time = Duration::from_s(600);
        cfg.seed = 42;
        let rep = run_transport(&cfg);
        assert!(rep.completed, "backoff must beat livelock at 10% loss");
        assert!(rep.delivered_frames > 0);
        assert!(rep.goodput_bps > 0.0);
        assert!(rep.ledger.reconciles(), "ledger: {:?}", rep.ledger);
        // The satellite path really is long: deliveries cannot beat the
        // one-way propagation delay.
        assert!(rep.finished_at.as_ps() > Duration::from_ms(280).as_ps());
    }

    #[test]
    fn expiry_reaches_attempts_still_in_flight() {
        // On a WAN path an attempt whose first cell is still in flight
        // (or was lost) has not started when a sweep runs; the sweep
        // must not step past it, or its chain is never expired and its
        // cells end up abandoned at the end of the run.
        let mut cfg = TransportConfig::paper(LineRate::Oc3);
        cfg.window = 8;
        cfg.fwd_plan = FaultPlan::loss(0.10);
        cfg.rev_plan = FaultPlan::loss(0.10);
        cfg = cfg.with_path(scenarios::wan_path());
        cfg.max_sim_time = Duration::from_s(600);
        cfg.seed = 1991;
        let rep = run_transport(&cfg);
        assert!(rep.completed);
        assert_eq!(rep.ledger.discarded_abandoned, 0, "{:?}", rep.ledger);
        assert!(rep.ledger.reconciles(), "{:?}", rep.ledger);
    }

    #[test]
    fn reports_are_byte_identical_across_reruns() {
        let mut cfg = small(LineRate::Oc12);
        cfg.fwd_plan = FaultPlan::loss(0.05);
        cfg.rev_plan = FaultPlan::loss(0.01);
        cfg = cfg.with_path(scenarios::wan_path());
        cfg.seed = 1991;
        let a = run_transport(&cfg);
        let b = run_transport(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn duplicate_acks_trigger_exactly_at_threshold() {
        // Force a hole: heavy loss early in a deep window produces
        // out-of-order completions, whose acks repeat the cumulative
        // edge. The transport must fast-retransmit at the configured
        // duplicate count, not before.
        let mut cfg = small(LineRate::Oc12);
        cfg.n_vcs = 1;
        cfg.frames_per_vc = 64;
        cfg.window = 16;
        cfg.dupack_threshold = 3;
        cfg.fwd_plan = FaultPlan::loss(0.03);
        cfg.seed = 5;
        let rep = run_transport(&cfg);
        assert!(rep.completed);
        assert!(
            rep.fast_retransmits > 0,
            "a deep window over a lossy path must exercise fast retransmit: {rep:?}"
        );
        assert!(rep.ledger.reconciles());
    }

    #[test]
    fn abandonment_bounds_attempts_under_total_blackout() {
        // A dead forward path: every frame must be given up after
        // max_attempts, never retried forever.
        let mut cfg = small(LineRate::Oc12);
        cfg.n_vcs = 1;
        cfg.frames_per_vc = 2;
        cfg.fwd_plan = FaultPlan::loss(1.0);
        cfg.max_attempts = 4;
        let rep = run_transport(&cfg);
        assert!(rep.completed, "abandonment must terminate the transfer");
        assert_eq!(rep.delivered_frames, 0);
        assert_eq!(rep.abandoned_frames, rep.offered_frames);
        assert_eq!(rep.attempts, rep.offered_frames * 4);
        assert!(rep.ledger.reconciles(), "ledger: {:?}", rep.ledger);
        assert_eq!(rep.ledger.delivered_cells, 0);
        assert_eq!(rep.ledger.dropped_link, rep.ledger.injected);
    }

    #[test]
    fn karn_rule_keeps_samples_off_retransmitted_frames() {
        let mut cfg = small(LineRate::Oc12);
        cfg.fwd_plan = FaultPlan::loss(0.01);
        cfg.seed = 3;
        let rep = run_transport(&cfg);
        // Every sample comes from a single-attempt frame, so there can
        // be at most one per unique delivered frame.
        assert!(rep.rtt_samples <= rep.delivered_frames);
        assert!(rep.rtt_samples > 0, "clean frames must still be sampled");
    }
}
