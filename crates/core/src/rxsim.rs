//! Discrete-event simulation of the **receive pipeline**:
//!
//! ```text
//! framer ─► input cell FIFO ─► engine: HEC · VCI lookup · enqueue · CRC
//!                                   │ (per cell, into buffer pool)
//!                     last cell ─►  engine: validate
//!                                   │
//!                    DMA bursts over the bus ═► host memory
//!                                   │
//!                            engine: complete (+ interrupt post)
//! ```
//!
//! Receive is the harder direction — the paper-era consensus this
//! architecture embodies — because the interface does not choose when
//! cells arrive: at full OC-12 payload rate a cell lands every 708 ns,
//! of *any* connection, in *any* interleaving. Loss mechanisms are
//! separately counted and every cell the link injects reconciles to
//! exactly one disposition in the run's [`CellLedger`]:
//!
//! * **link faults** — [`RxConfig::link_faults`] perturbing the arrival
//!   schedule (loss, corruption, duplication, bounded reordering);
//! * **input FIFO overrun** — the engine's per-cell work exceeds the
//!   cell slot; arrivals outrun processing and the FIFO tops out;
//! * **buffer-pool exhaustion** — too many partially reassembled frames
//!   in flight for the adaptor SRAM (with drop-tail, EPD or PPD policy
//!   deciding *which* cells pay — see [`DiscardPolicy`]);
//! * **validation failure** — corrupt payload or wrong cell count at
//!   end of frame (the CRC-32 catch-all);
//! * **reassembly expiry** — a chain stalled longer than the timeout is
//!   purged so a lost end-of-frame cell cannot pin buffers forever.
//!
//! Cells are engine work at **higher priority** than packet-level
//! validation/DMA/completion, exactly as a real design must prioritise —
//! a cell not consumed is lost, while a completion can wait.
//!
//! Each frame's fate — straggler, EPD/PPD admission, pool append,
//! end-of-frame validation, expiry, the end-of-run drain — is decided by
//! the shared frame-fate machine ([`FrameFates`]), the same one the
//! closed-loop transport drives, so the two models cannot drift apart.
//! This module keeps what is particular to the open-loop pipeline: the
//! input FIFO, the engine's task priorities, delivery DMA over the bus,
//! and the expiry tick's cadence.
//!
//! The expiry timer is modelled as background bookkeeping: a tick every
//! half timeout while any frame is under reassembly. Purges free
//! buffers at the simulated instant they happen but consume no engine
//! time and never extend the measured span (`run_end`), so a faultless
//! run's report is byte-identical with the timer armed or not.

use crate::bufpool::{DiscardPolicy, PoolConfig};
use crate::bus::{Bus, BusConfig};
use crate::engine::{HwPartition, ProtocolEngine, TaskKind};
use crate::fate::{Arrival, CellLedger, Delivery, FrameFates};
use hni_aal::AalType;
use hni_sim::{BusFaultPlan, Duration, EventQueue, FaultInjector, FaultPlan, Histogram, Time};
use hni_sonet::LineRate;
use hni_telemetry::{
    Activity, Component, NullProfiler, NullTracer, Profiler, Stage, TraceEvent, Tracer, VcMetrics,
};
use std::collections::VecDeque;

/// Receive-pipeline configuration.
#[derive(Clone, Debug)]
pub struct RxConfig {
    /// Link rate cells arrive at (sets the slot clock).
    pub rate: LineRate,
    /// Engine speed in MIPS.
    pub mips: f64,
    /// Hardware/software split.
    pub partition: HwPartition,
    /// Bus parameters.
    pub bus: BusConfig,
    /// Input FIFO depth in cells.
    pub fifo_cells: usize,
    /// Reassembly buffer pool.
    pub pool: PoolConfig,
    /// Adaptation layer (cells-per-packet arithmetic).
    pub aal: AalType,
    /// Buffer discard policy under pool pressure.
    pub policy: DiscardPolicy,
    /// Purge reassembly chains idle this long ([`Duration::ZERO`]
    /// disables the timer).
    pub reassembly_timeout: Duration,
    /// Fault plan for the host bus (stalls / aborted bursts).
    pub bus_faults: BusFaultPlan,
    /// Fault plan for the link ahead of the interface: every arrival
    /// passes through it (see [`apply_faults`]) before the pipeline
    /// sees it. [`FaultPlan::NONE`] leaves the workload untouched.
    pub link_faults: FaultPlan,
    /// Seed of the link fault process.
    pub link_seed: u64,
}

impl RxConfig {
    /// The architecture's design point at a given rate.
    pub fn paper(rate: LineRate) -> Self {
        RxConfig {
            rate,
            mips: 25.0,
            partition: HwPartition::paper_split(),
            bus: BusConfig::default(),
            fifo_cells: 16,
            pool: PoolConfig {
                total_buffers: 256,
                cells_per_buffer: 32,
            },
            aal: AalType::Aal5,
            policy: DiscardPolicy::DropTail,
            reassembly_timeout: Duration::from_ms(10),
            bus_faults: BusFaultPlan::NONE,
            link_faults: FaultPlan::NONE,
            link_seed: 0,
        }
    }
}

/// One cell arrival in a receive workload.
#[derive(Clone, Copy, Debug)]
pub struct CellArrival {
    /// Arrival time at the interface.
    pub at: Time,
    /// Which packet this cell belongs to (index into the workload's
    /// packet table).
    pub pkt: usize,
    /// Whether it is the packet's final cell.
    pub is_last: bool,
    /// Whether the link damaged its payload (fails end-of-frame CRC).
    pub corrupted: bool,
}

/// A packet in a receive workload.
#[derive(Clone, Copy, Debug)]
pub struct RxPktMeta {
    /// Connection index (CAM output).
    pub conn: u16,
    /// SDU octets the packet delivers to the host.
    pub len: usize,
    /// Cells the packet occupies.
    pub cells: usize,
}

/// A complete receive workload: cell arrivals plus packet metadata.
#[derive(Clone, Debug)]
pub struct RxWorkload {
    /// Cell arrival schedule (must be time-sorted).
    pub arrivals: Vec<CellArrival>,
    /// Packet table.
    pub pkts: Vec<RxPktMeta>,
}

impl RxWorkload {
    /// A uniform workload: `pkts_per_vc` packets of `len` octets on each
    /// of `n_vcs` connections, cells interleaved round-robin across
    /// connections, offered at `load` × the link's cell slot rate.
    pub fn uniform(
        rate: LineRate,
        aal: AalType,
        n_vcs: usize,
        pkts_per_vc: usize,
        len: usize,
        load: f64,
    ) -> Self {
        assert!(n_vcs > 0 && pkts_per_vc > 0);
        assert!(load > 0.0 && load <= 1.0);
        let cells_per_pkt = aal.cells_for_sdu(len);
        let mut pkts = Vec::with_capacity(n_vcs * pkts_per_vc);
        // Per-VC cursors: (packet index, cell index within packet).
        let mut streams: Vec<(usize, usize)> = Vec::with_capacity(n_vcs);
        for v in 0..n_vcs {
            for _ in 0..pkts_per_vc {
                pkts.push(RxPktMeta {
                    conn: v as u16,
                    len,
                    cells: cells_per_pkt,
                });
            }
            // Stream v starts at its first packet (packets are laid out
            // per-VC contiguously: v*pkts_per_vc ..).
            streams.push((v * pkts_per_vc, 0));
        }
        let interval = Duration::from_s_f64(rate.cell_slot_time().as_s_f64() / load);
        let total_cells = n_vcs * pkts_per_vc * cells_per_pkt;
        let mut arrivals = Vec::with_capacity(total_cells);
        let mut t = Time::ZERO;
        let mut v = 0usize;
        for _ in 0..total_cells {
            // Find the next VC (round-robin) that still has cells.
            let mut tries = 0;
            while tries < n_vcs {
                let (p, _c) = streams[v];
                let vc_end = (v + 1) * pkts_per_vc;
                if p < vc_end {
                    break;
                }
                v = (v + 1) % n_vcs;
                tries += 1;
            }
            let (p, c) = streams[v];
            let is_last = c + 1 == cells_per_pkt;
            arrivals.push(CellArrival {
                at: t,
                pkt: p,
                is_last,
                corrupted: false,
            });
            streams[v] = if is_last { (p + 1, 0) } else { (p, c + 1) };
            v = (v + 1) % n_vcs;
            t += interval;
        }
        RxWorkload { arrivals, pkts }
    }
}

/// What the link did to a workload when a [`FaultPlan`] was applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Cells the original workload offered.
    pub offered: u64,
    /// Cells the link dropped.
    pub dropped: u64,
    /// Cells whose payload the link damaged.
    pub corrupted: u64,
    /// Extra copies the link injected.
    pub duplicated: u64,
    /// Cells displaced to a later slot.
    pub reordered: u64,
    /// Random draws the injector consumed (0 for [`FaultPlan::NONE`]).
    pub rng_draws: u64,
}

/// Run a workload's cells through a seeded [`FaultPlan`], producing the
/// perturbed workload the interface actually sees plus what happened on
/// the wire. Deterministic per seed; the empty plan draws no randomness
/// and returns the workload unchanged.
///
/// Semantics at the cell-schedule level: a lost cell's arrival vanishes;
/// a corrupted cell arrives flagged (it fails end-of-frame validation);
/// a duplicated cell arrives again one slot later, undamaged (never as
/// `is_last` — the copy inflates the frame's cell count, which
/// validation catches);
/// a reordered cell is displaced `displaced` slots later. Displacement
/// is detected only when it crosses the frame boundary — within a frame
/// the reassembly chain absorbs it.
pub fn apply_faults(
    wl: &RxWorkload,
    plan: &FaultPlan,
    slot: Duration,
    seed: u64,
) -> (RxWorkload, LinkFaults) {
    let mut inj = FaultInjector::seeded(*plan, seed);
    let mut lf = LinkFaults {
        offered: wl.arrivals.len() as u64,
        ..LinkFaults::default()
    };
    let mut arrivals = Vec::with_capacity(wl.arrivals.len());
    for a in &wl.arrivals {
        // An ATM cell is 53 octets on the wire.
        let fate = inj.fate(53 * 8);
        if fate.lost {
            lf.dropped += 1;
            continue;
        }
        let corrupted = a.corrupted || !fate.flipped_bits.is_empty();
        if corrupted && !a.corrupted {
            lf.corrupted += 1;
        }
        let at = a.at + slot * fate.displaced as u64;
        if fate.displaced > 0 {
            lf.reordered += 1;
        }
        arrivals.push(CellArrival {
            at,
            pkt: a.pkt,
            is_last: a.is_last,
            corrupted,
        });
        if fate.duplicated {
            lf.duplicated += 1;
            arrivals.push(CellArrival {
                at: at + slot,
                pkt: a.pkt,
                is_last: false,
                corrupted: a.corrupted,
            });
        }
    }
    // Restore time order after displacement (stable sort keeps the
    // FIFO tie-break deterministic).
    arrivals.sort_by_key(|a| a.at);
    lf.rng_draws = inj.rng_draws();
    (
        RxWorkload {
            arrivals,
            pkts: wl.pkts.clone(),
        },
        lf,
    )
}

/// Results of a receive simulation run.
#[derive(Clone, Debug)]
pub struct RxReport {
    /// Cells offered to the interface by the (post-fault) workload.
    pub cells_offered: u64,
    /// Cells lost to input-FIFO overrun.
    pub dropped_fifo: u64,
    /// Cells lost to buffer-pool exhaustion.
    pub dropped_pool: u64,
    /// Packets fully delivered to host memory.
    pub delivered_packets: u64,
    /// SDU octets delivered.
    pub delivered_octets: u64,
    /// Packets that started but failed (cell loss, discard policy,
    /// validation failure or expiry).
    pub failed_packets: u64,
    /// Goodput in bits/second over the run.
    pub goodput_bps: f64,
    /// Engine utilization.
    pub engine_util: f64,
    /// Bus utilization.
    pub bus_util: f64,
    /// Peak input-FIFO occupancy.
    pub fifo_peak: u64,
    /// Peak reassembly buffers in use.
    pub pool_peak: u64,
    /// Mean reassembly buffers in use (time-weighted).
    pub pool_mean: f64,
    /// Packet latency (first cell arrival → completion), ps: exact
    /// count, mean, min and max, plus the always-on log₂
    /// p50/p90/p99/p999 bands.
    pub latency_hist: Histogram,
    /// Per-connection cell volume at bounded cardinality (always on).
    pub vc_cells: VcMetrics,
    /// When the last packet completed ([`Time::ZERO`] if none did).
    pub finished_at: Time,
    /// End of all simulated activity: the later of `finished_at` and
    /// the final productive event processed (expiry-timer ticks are
    /// bookkeeping and excluded). Unlike `finished_at` this is nonzero
    /// even when overload dooms every packet, so it is the right span
    /// for utilization math and profile snapshots.
    pub run_end: Time,
    /// Where every injected cell went.
    pub ledger: CellLedger,
    /// Each workload packet's completion time (`None` for packets that
    /// never completed), indexed like the workload's packet table.
    pub completions: Vec<Option<Time>>,
    /// What the link's fault plan did to the workload.
    pub link: LinkFaults,
}

#[derive(Clone, Copy, Debug)]
enum RTask {
    /// Per-cell work for (pkt, is_last).
    Cell(usize, bool),
    /// End-of-frame validation.
    Validate(usize),
    /// Engine part of one DMA burst.
    Burst(usize),
    /// Completion processing.
    Complete(usize),
}

#[derive(Clone, Copy, Debug)]
enum REv {
    CellArrive(usize),
    EngineDone(RTask),
    BusDone(usize),
    /// Reassembly-expiry timer scan (background bookkeeping).
    ExpiryTick,
}

/// A delivered frame's DMA progress.
struct Dma {
    issued: u32,
    total: u32,
}

/// Run the receive pipeline over a workload.
pub fn run_rx(cfg: &RxConfig, wl: &RxWorkload) -> RxReport {
    run_rx_full(cfg, wl, &mut NullTracer, &mut NullProfiler)
}

/// [`run_rx`] with probes attached. `tracer` receives a structured
/// [`TraceEvent`] at every pipeline stage boundary (cell arrival, FIFO
/// admission/drop, per-cell engine spans, reassembly appends,
/// validation, delivery DMA, completion). `profiler` is charged every
/// simulated interval: engine busy time and stalls (`rx.engine`),
/// delivery-DMA bus cycles (`rx.bus`), arriving cell slots (`rx.link`),
/// and the input-FIFO and reassembly-pool occupancy gauges (`rx.fifo`,
/// `rx.pool`). Probes only observe: the report is the one [`run_rx`]
/// returns.
///
/// The workload first crosses the link's [`RxConfig::link_faults`];
/// the link's own losses are folded into the report's [`CellLedger`] so
/// the conservation invariant spans the whole path.
pub fn run_rx_full(
    cfg: &RxConfig,
    wl: &RxWorkload,
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) -> RxReport {
    // A faultless link uses the workload as given: no copy, no RNG.
    let offered = wl;
    let faulted;
    let (wl, link) = if cfg.link_faults.is_none() {
        let clean = LinkFaults {
            offered: wl.arrivals.len() as u64,
            ..LinkFaults::default()
        };
        (wl, clean)
    } else {
        let (fwl, lf) = apply_faults(
            wl,
            &cfg.link_faults,
            cfg.rate.cell_slot_time(),
            cfg.link_seed,
        );
        faulted = fwl;
        (&faulted, lf)
    };
    let engine = ProtocolEngine::new(cfg.mips, &cfg.partition);
    let mut bus = Bus::with_faults(cfg.bus, cfg.bus_faults);
    let mut q: EventQueue<REv> = EventQueue::new();

    for (i, a) in wl.arrivals.iter().enumerate() {
        q.schedule(a.at, REv::CellArrive(i));
    }

    // Frame keys are workload packet indices.
    let mut fate = FrameFates::new(cfg.pool, cfg.policy);
    let mut dma: Vec<Dma> = wl
        .pkts
        .iter()
        .enumerate()
        .map(|(p, m)| {
            fate.open(m.conn as u32, p, m.cells as u32);
            Dma {
                issued: 0,
                total: cfg.bus.bursts_for(m.len),
            }
        })
        .collect();

    // Input FIFO holds (pkt, is_last).
    let mut fifo: VecDeque<(usize, bool)> = VecDeque::new();
    let mut fifo_peak = 0u64;
    let mut task_q: VecDeque<RTask> = VecDeque::new();
    let mut engine_busy = false;
    let mut engine_busy_total = Duration::ZERO;
    // Profiler bookkeeping (see txsim): the burst counter is cheap and
    // unconditional; the idle marker only exists while profiling.
    let mut bursts_in_flight: u32 = 0;
    let mut engine_idle_since: Option<(Time, Activity)> = None;
    let slot = cfg.rate.cell_slot_time();

    fate.ledger = CellLedger {
        injected: wl.arrivals.len() as u64 + link.dropped,
        dropped_link: link.dropped,
        ..CellLedger::default()
    };
    let mut completions = vec![None; wl.pkts.len()];
    let mut delivered_packets = 0u64;
    let mut delivered_octets = 0u64;
    let mut latency_hist = Histogram::new();
    let mut vc_cells = VcMetrics::new();
    let mut finished_at = Time::ZERO;
    // End of *productive* simulated activity (expiry ticks excluded, so
    // a no-op timer never stretches utilization or goodput spans).
    let mut last_event = Time::ZERO;
    let expiry_on = cfg.reassembly_timeout > Duration::ZERO;
    let mut tick_pending = false;

    let cell_time = engine.task_time(TaskKind::RxHec)
        + engine.task_time(TaskKind::RxVciLookup)
        + engine.task_time(TaskKind::RxCellEnqueue)
        + engine.task_time(TaskKind::RxCellCrc);

    macro_rules! kick_engine {
        ($q:expr, $now:expr) => {
            if !engine_busy {
                // Cells first — an unconsumed cell is a lost cell.
                let task = if let Some((p, last)) = fifo.pop_front() {
                    if profiler.enabled() {
                        profiler.gauge(Component::RxFifo, $now, fifo.len() as u64);
                    }
                    Some(RTask::Cell(p, last))
                } else {
                    task_q.pop_front()
                };
                if let Some(task) = task {
                    engine_busy = true;
                    let t = match task {
                        RTask::Cell(..) => cell_time,
                        RTask::Validate(_) => engine.task_time(TaskKind::RxPacketValidate),
                        RTask::Burst(_) => engine.task_time(TaskKind::RxDmaBurst),
                        RTask::Complete(_) => engine.task_time(TaskKind::RxPacketComplete),
                    };
                    engine_busy_total += t;
                    if profiler.enabled() {
                        if let Some((since, cause)) = engine_idle_since.take() {
                            profiler.charge(
                                Component::RxEngine,
                                cause,
                                since,
                                $now.saturating_since(since),
                            );
                        }
                        profiler.charge(Component::RxEngine, Activity::Busy, $now, t);
                    }
                    if tracer.enabled() {
                        // Open a span for the bundled per-cell work and the
                        // per-packet tasks (closed at EngineDone).
                        let stage = match task {
                            RTask::Cell(p, _) => Some((Stage::RxCell, p)),
                            RTask::Validate(p) => {
                                TaskKind::RxPacketValidate.trace_stage().map(|s| (s, p))
                            }
                            RTask::Complete(p) => {
                                TaskKind::RxPacketComplete.trace_stage().map(|s| (s, p))
                            }
                            RTask::Burst(_) => None,
                        };
                        if let Some((stage, p)) = stage {
                            tracer.record(
                                TraceEvent::enter($now, stage)
                                    .vc(wl.pkts[p].conn as u32)
                                    .pkt(p),
                            );
                        }
                    }
                    $q.schedule_in(t, REv::EngineDone(task));
                } else if profiler.enabled() && engine_idle_since.is_none() {
                    // Receive stalls: an outstanding delivery DMA means
                    // the completion is waiting on the bus; otherwise
                    // the engine is simply between arrivals.
                    let cause = if bursts_in_flight > 0 {
                        Activity::StalledBus
                    } else {
                        Activity::Idle
                    };
                    engine_idle_since = Some(($now, cause));
                }
            }
        };
    }

    while let Some((now, ev)) = q.pop() {
        match ev {
            REv::CellArrive(i) => {
                last_event = now;
                let a = wl.arrivals[i];
                let conn = wl.pkts[a.pkt].conn as u32;
                // Always-on per-VC accounting at the wire (53 octets per
                // arriving cell); O(K) scan, no allocation, observational.
                vc_cells.record_cell(conn, 53);
                if profiler.enabled() {
                    // The cell occupied the line for the slot that ended
                    // at its arrival (saturating for an arrival at t=0).
                    let from = Time::from_ps(now.as_ps().saturating_sub(slot.as_ps()));
                    profiler.charge(Component::RxLink, Activity::Transfer, from, slot);
                }
                if tracer.enabled() {
                    tracer.record(
                        TraceEvent::instant(now, Stage::RxCellArrive)
                            .vc(conn)
                            .pkt(a.pkt)
                            .cell(i as u64),
                    );
                }
                let arrival = fate.arrive(now, a.pkt, i as u64, a.corrupted, tracer);
                if arrival.starts_frame() && expiry_on && !tick_pending {
                    q.schedule_in(cfg.reassembly_timeout, REv::ExpiryTick);
                    tick_pending = true;
                }
                match arrival {
                    Arrival::Stale => {}
                    Arrival::Refused { .. } => {
                        if a.is_last {
                            // The frame's end came and went unseen.
                            fate.seal(now, a.pkt, profiler);
                        }
                    }
                    Arrival::Admitted { .. } if fifo.len() >= cfg.fifo_cells => {
                        fate.ledger.dropped_fifo += 1;
                        fate.doom(a.pkt);
                        if tracer.enabled() {
                            tracer.record(
                                TraceEvent::instant(now, Stage::RxFifoDrop)
                                    .vc(conn)
                                    .pkt(a.pkt)
                                    .cell(i as u64),
                            );
                        }
                    }
                    Arrival::Admitted { .. } => {
                        fifo.push_back((a.pkt, a.is_last));
                        fifo_peak = fifo_peak.max(fifo.len() as u64);
                        if profiler.enabled() {
                            profiler.gauge(Component::RxFifo, now, fifo.len() as u64);
                        }
                        if tracer.enabled() {
                            tracer.record(
                                TraceEvent::instant(now, Stage::RxFifoEnqueue)
                                    .vc(conn)
                                    .pkt(a.pkt)
                                    .cell(i as u64)
                                    .arg(fifo.len() as u64),
                            );
                        }
                    }
                }
                kick_engine!(q, now);
            }
            REv::EngineDone(task) => {
                last_event = now;
                engine_busy = false;
                match task {
                    RTask::Cell(p, is_last) => {
                        let conn = wl.pkts[p].conn as u32;
                        if tracer.enabled() {
                            tracer.record(TraceEvent::exit(now, Stage::RxCell).vc(conn).pkt(p));
                        }
                        if fate.store(now, p, tracer, profiler) && is_last {
                            if let Some(seen) = fate.seal(now, p, profiler) {
                                if tracer.enabled() {
                                    tracer.record(
                                        TraceEvent::instant(now, Stage::RxReasmComplete)
                                            .vc(conn)
                                            .pkt(p)
                                            .arg(seen as u64),
                                    );
                                }
                                task_q.push_back(RTask::Validate(p));
                            }
                        }
                    }
                    RTask::Validate(p) => {
                        if tracer.enabled() {
                            tracer.record(
                                TraceEvent::exit(now, Stage::RxValidate)
                                    .vc(wl.pkts[p].conn as u32)
                                    .pkt(p),
                            );
                        }
                        if fate.validate(now, p, tracer, profiler) {
                            let d = &mut dma[p];
                            if d.total == 0 {
                                task_q.push_back(RTask::Complete(p));
                            } else if engine.partition.in_hardware(TaskKind::RxDmaBurst) {
                                d.issued += 1;
                                let words = cfg.bus.burst_words(wl.pkts[p].len, 0);
                                let done = bus.grant(now, words, Component::RxBus, profiler);
                                bursts_in_flight += 1;
                                q.schedule(done, REv::BusDone(p));
                            } else {
                                d.issued += 1;
                                task_q.push_back(RTask::Burst(p));
                            }
                        }
                    }
                    RTask::Burst(p) => {
                        let bi = dma[p].issued - 1;
                        let words = cfg.bus.burst_words(wl.pkts[p].len, bi);
                        let done = bus.grant(now, words, Component::RxBus, profiler);
                        bursts_in_flight += 1;
                        q.schedule(done, REv::BusDone(p));
                    }
                    RTask::Complete(p) => {
                        let meta = &wl.pkts[p];
                        if tracer.enabled() {
                            let conn = meta.conn as u32;
                            tracer.record(TraceEvent::exit(now, Stage::RxComplete).vc(conn).pkt(p));
                            tracer.record(
                                TraceEvent::instant(now, Stage::CompletionPush)
                                    .vc(conn)
                                    .pkt(p)
                                    .arg(meta.len as u64),
                            );
                        }
                        fate.deliver(now, p, Delivery::Host, profiler);
                        delivered_packets += 1;
                        delivered_octets += meta.len as u64;
                        finished_at = now;
                        completions[p] = Some(now);
                        if let Some(t0) = fate.first_activity(p) {
                            let lat = now.saturating_since(t0);
                            latency_hist.record_duration(lat);
                        }
                    }
                }
                kick_engine!(q, now);
            }
            REv::BusDone(p) => {
                last_event = now;
                bursts_in_flight -= 1;
                if tracer.enabled() {
                    tracer.record(
                        TraceEvent::instant(now, Stage::RxDmaBurst)
                            .vc(wl.pkts[p].conn as u32)
                            .pkt(p)
                            .arg(dma[p].issued as u64),
                    );
                }
                let d = &mut dma[p];
                if d.issued < d.total {
                    d.issued += 1;
                    if engine.partition.in_hardware(TaskKind::RxDmaBurst) {
                        let bi = d.issued - 1;
                        let words = cfg.bus.burst_words(wl.pkts[p].len, bi);
                        let done = bus.grant(now, words, Component::RxBus, profiler);
                        bursts_in_flight += 1;
                        q.schedule(done, REv::BusDone(p));
                    } else {
                        task_q.push_back(RTask::Burst(p));
                    }
                } else {
                    task_q.push_back(RTask::Complete(p));
                }
                kick_engine!(q, now);
            }
            REv::ExpiryTick => {
                // Background purge: no engine time, no `last_event`.
                tick_pending = false;
                let any_waiting = fate.expire(now, cfg.reassembly_timeout, tracer, profiler);
                if any_waiting {
                    // Half-timeout cadence bounds detection latency at
                    // 1.5 × the timeout without per-frame timers.
                    q.schedule_in(
                        Duration::from_ps((cfg.reassembly_timeout.as_ps() / 2).max(1)),
                        REv::ExpiryTick,
                    );
                    tick_pending = true;
                }
            }
        }
    }

    let end = finished_at.max(last_event);
    // With the expiry timer disabled, frames stalled mid-reassembly are
    // still open when the queue drains; account them so the ledger
    // always reconciles.
    fate.drain(end, profiler);
    let mut failed_packets = fate.failed_frames();
    if link.dropped > 0 {
        // Packets whose every cell the link swallowed never started at
        // the interface; they still failed end to end.
        let mut sent = vec![false; wl.pkts.len()];
        for a in &offered.arrivals {
            sent[a.pkt] = true;
        }
        failed_packets += (0..wl.pkts.len())
            .filter(|&p| sent[p] && fate.first_activity(p).is_none())
            .count() as u64;
    }
    let elapsed_s = end.saturating_since(Time::ZERO).as_s_f64();
    RxReport {
        cells_offered: wl.arrivals.len() as u64,
        dropped_fifo: fate.ledger.dropped_fifo,
        dropped_pool: fate.ledger.dropped_pool,
        delivered_packets,
        delivered_octets,
        failed_packets,
        goodput_bps: if elapsed_s > 0.0 {
            delivered_octets as f64 * 8.0 / elapsed_s
        } else {
            0.0
        },
        engine_util: if elapsed_s > 0.0 {
            engine_busy_total.as_s_f64() / elapsed_s
        } else {
            0.0
        },
        bus_util: bus.utilization(end),
        fifo_peak,
        pool_peak: fate.pool().peak_in_use(),
        pool_mean: fate.pool().mean_in_use(end),
        latency_hist,
        vc_cells,
        finished_at,
        run_end: end,
        ledger: fate.ledger,
        completions,
        link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_delivery_at_moderate_load() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 10, 9180, 0.8);
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.delivered_packets, 40);
        assert_eq!(r.failed_packets, 0);
        assert_eq!(r.dropped_fifo, 0);
        assert_eq!(r.delivered_octets, 40 * 9180);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
        assert_eq!(r.ledger.delivered_cells, r.ledger.injected);
    }

    #[test]
    fn full_line_rate_sustained_by_paper_config() {
        // The design claim: at OC-12 and load 1.0 with big frames, the
        // split-hardware interface keeps up — no FIFO drops.
        let cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 8, 40, 9180, 1.0);
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.dropped_fifo, 0, "paper config must keep up at line rate");
        assert_eq!(r.failed_packets, 0);
        // Ceiling: payload rate × cell payload fraction × AAL efficiency.
        // (A percent-level drain tail remains: the 8 interleaved VCs all
        // complete within a few slots of each other and their delivery
        // DMAs serialize on the bus after the last cell has arrived.)
        let ceiling = LineRate::Oc12.payload_bps() * (48.0 / 53.0) * AalType::Aal5.efficiency(9180);
        assert!(
            r.goodput_bps > 0.95 * ceiling,
            "goodput {} vs ceiling {ceiling}",
            r.goodput_bps
        );
    }

    #[test]
    fn all_software_drowns_at_oc12() {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.partition = HwPartition::all_software();
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 8, 5, 9180, 1.0);
        let r = run_rx(&cfg, &wl);
        assert!(r.dropped_fifo > 0, "software per-cell work cannot keep up");
        assert!(r.failed_packets > 0);
        assert!(r.engine_util > 0.95);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }

    #[test]
    fn all_software_survives_low_load() {
        let mut cfg = RxConfig::paper(LineRate::Oc3);
        cfg.partition = HwPartition::all_software();
        // Per-cell software work ≈ 8.08 µs (202 instr / 25 MIPS); OC-3
        // slots are 2.83 µs, so keep offered load under a third.
        let wl = RxWorkload::uniform(LineRate::Oc3, AalType::Aal5, 2, 10, 9180, 0.3);
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.dropped_fifo, 0);
        assert_eq!(r.failed_packets, 0);
    }

    #[test]
    fn pool_exhaustion_with_many_interleaved_vcs() {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        // Tiny pool: 4 containers of 32 cells.
        cfg.pool = PoolConfig {
            total_buffers: 4,
            cells_per_buffer: 32,
        };
        // 64 VCs interleaving 9180-byte frames (192 cells each): every VC
        // needs ~6 containers concurrently. Must exhaust.
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 64, 1, 9180, 1.0);
        let r = run_rx(&cfg, &wl);
        assert!(r.dropped_pool > 0);
        assert!(r.failed_packets > 0);
        assert_eq!(r.pool_peak, 4);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }

    #[test]
    fn epd_beats_drop_tail_when_pool_starves() {
        // Same starved pool as above; EPD refuses whole frames at the
        // door instead of shredding every frame a little.
        let mut dt = RxConfig::paper(LineRate::Oc12);
        dt.pool = PoolConfig {
            total_buffers: 16,
            cells_per_buffer: 32,
        };
        let mut epd = dt.clone();
        // 9180-octet frames span 6 buffers, so a 16-buffer pool fits two
        // whole frames: the threshold must leave admitted frames room to
        // GROW, not just room to start. Drop-tail instead lets all 64
        // VCs start chains that can never finish.
        epd.policy = DiscardPolicy::Epd { threshold: 2 };
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 64, 4, 9180, 1.0);
        let r_dt = run_rx(&dt, &wl);
        let r_epd = run_rx(&epd, &wl);
        assert!(r_epd.ledger.discarded_epd > 0);
        assert!(r_dt.ledger.reconciles(), "{:?}", r_dt.ledger);
        assert!(r_epd.ledger.reconciles(), "{:?}", r_epd.ledger);
        assert!(
            r_epd.delivered_packets > r_dt.delivered_packets,
            "EPD {} vs drop-tail {}",
            r_epd.delivered_packets,
            r_dt.delivered_packets
        );
    }

    #[test]
    fn ppd_reclaims_doomed_chains() {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.pool = PoolConfig {
            total_buffers: 8,
            cells_per_buffer: 32,
        };
        cfg.policy = DiscardPolicy::Ppd;
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 64, 2, 9180, 1.0);
        let r = run_rx(&cfg, &wl);
        assert!(r.ledger.discarded_ppd > 0);
        assert_eq!(r.ledger.dropped_pool, 0, "PPD converts exhaustion");
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }

    #[test]
    fn expiry_purges_stalled_chain_and_frees_buffers() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        // One frame whose last cell never arrives: 5 of 6 cells.
        let pkts = vec![RxPktMeta {
            conn: 0,
            len: 240,
            cells: 6,
        }];
        let mut arrivals = Vec::new();
        for c in 0..5usize {
            arrivals.push(CellArrival {
                at: Time::from_ns(708 * (c as u64 + 1)),
                pkt: 0,
                is_last: false,
                corrupted: false,
            });
        }
        let wl = RxWorkload { arrivals, pkts };
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.failed_packets, 1);
        assert_eq!(r.ledger.discarded_expired, 5);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
        // The purge is bookkeeping: it must not stretch the run.
        assert!(r.run_end < Time::from_ms(1), "run_end {:?}", r.run_end);
    }

    #[test]
    fn expiry_disabled_still_reconciles() {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.reassembly_timeout = Duration::ZERO;
        let pkts = vec![RxPktMeta {
            conn: 0,
            len: 240,
            cells: 6,
        }];
        let arrivals = (0..5usize)
            .map(|c| CellArrival {
                at: Time::from_ns(708 * (c as u64 + 1)),
                pkt: 0,
                is_last: false,
                corrupted: false,
            })
            .collect();
        let wl = RxWorkload { arrivals, pkts };
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.failed_packets, 1);
        assert_eq!(r.ledger.discarded_abandoned, 5);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }

    #[test]
    fn corrupt_cell_fails_validation() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let mut wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 1, 2, 4096, 0.8);
        wl.arrivals[1].corrupted = true;
        let r = run_rx(&cfg, &wl);
        assert_eq!(r.delivered_packets, 1);
        assert_eq!(r.failed_packets, 1);
        assert!(r.ledger.discarded_crc > 0);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }

    #[test]
    fn faulted_run_reconciles_and_is_deterministic() {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 8, 6, 9180, 0.9);
        cfg.link_faults = FaultPlan::iid(0.005, 1e-5)
            .with_duplication(0.01)
            .with_reorder(0.02, 4);
        cfg.link_seed = 42;
        let r1 = run_rx(&cfg, &wl);
        let r2 = run_rx(&cfg, &wl);
        let (lf1, lf2) = (r1.link, r2.link);
        assert_eq!(lf1, lf2);
        assert_eq!(r1.ledger, r2.ledger);
        assert!(lf1.dropped > 0, "0.5% loss over 9216 cells");
        assert_eq!(r1.ledger.dropped_link, lf1.dropped);
        assert_eq!(
            r1.ledger.injected,
            wl.arrivals.len() as u64 + lf1.duplicated
        );
        assert!(r1.ledger.reconciles(), "{:?}", r1.ledger);
        assert!(r1.delivered_packets < 48, "some frames must fail");
        assert!(
            r1.delivered_packets > 0,
            "some frames must survive 0.5% loss"
        );
    }

    #[test]
    fn duplicates_add_no_damaged_arrivals() {
        // Every cell is duplicated and a high BER damages about a third
        // of them. The flips hit the first copy only, so the damaged
        // arrivals are exactly the cells the link corrupted.
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 4, 9180, 0.9);
        let plan = FaultPlan::ber(1e-3).with_duplication(1.0);
        let (faulted, lf) = apply_faults(&wl, &plan, LineRate::Oc12.cell_slot_time(), 7);
        let offered = wl.arrivals.len() as u64;
        assert_eq!(lf.duplicated, offered);
        assert_eq!(faulted.arrivals.len() as u64, 2 * offered);
        assert!(lf.corrupted > offered / 4, "{} of {offered}", lf.corrupted);
        let damaged = faulted.arrivals.iter().filter(|a| a.corrupted).count();
        assert_eq!(damaged as u64, lf.corrupted);
    }

    #[test]
    fn faultless_plan_is_byte_identical_and_draw_free() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 10, 9180, 0.9);
        let plain = run_rx(&cfg, &wl);
        let seeded = RxConfig {
            link_seed: 7,
            ..cfg.clone()
        };
        let faulted = run_rx(&seeded, &wl);
        assert_eq!(
            faulted.link.rng_draws, 0,
            "empty plan must not touch the RNG"
        );
        assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
    }

    #[test]
    fn interleaving_widens_pool_footprint() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let one_vc = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 1, 16, 9180, 1.0);
        let many_vc = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 16, 1, 9180, 1.0);
        let r1 = run_rx(&cfg, &one_vc);
        let r16 = run_rx(&cfg, &many_vc);
        assert!(
            r16.pool_peak > 4 * r1.pool_peak,
            "16-way interleave {} vs serial {}",
            r16.pool_peak,
            r1.pool_peak
        );
    }

    #[test]
    fn latency_has_sane_floor() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 1, 5, 9180, 0.9);
        let r = run_rx(&cfg, &wl);
        // A 192-cell frame takes ≥ 191 arrival intervals ≈ 150 µs just to
        // arrive; latency must exceed that and stay well under 1 ms.
        assert!(r.latency_hist.min() > Duration::from_us(140).as_ps());
        assert!(r.latency_hist.max() < Duration::from_us(1000).as_ps());
    }

    #[test]
    fn deterministic() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 10, 4096, 0.9);
        let a = run_rx(&cfg, &wl);
        let b = run_rx(&cfg, &wl);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.delivered_packets, b.delivered_packets);
    }

    #[test]
    fn workload_generator_counts() {
        let wl = RxWorkload::uniform(LineRate::Oc3, AalType::Aal5, 3, 4, 1000, 0.5);
        assert_eq!(wl.pkts.len(), 12);
        let cells_per = AalType::Aal5.cells_for_sdu(1000);
        assert_eq!(wl.arrivals.len(), 12 * cells_per);
        // Arrivals strictly increasing.
        for w in wl.arrivals.windows(2) {
            assert!(w[0].at < w[1].at);
        }
        // Exactly one last cell per packet.
        let lasts = wl.arrivals.iter().filter(|a| a.is_last).count();
        assert_eq!(lasts, 12);
    }

    #[test]
    fn small_packets_engine_bound_by_per_packet_work() {
        let cfg = RxConfig::paper(LineRate::Oc12);
        // 1-cell packets at full rate: per-packet work (30+40 instr =
        // 2.8 µs) per 708 ns slot → cannot keep up, FIFO drops.
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 200, 40, 1.0);
        let r = run_rx(&cfg, &wl);
        assert!(
            r.dropped_fifo + r.dropped_pool > 0 && r.failed_packets > 0,
            "single-cell packets at line rate must overwhelm per-packet processing: {r:?}"
        );
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    }
}
