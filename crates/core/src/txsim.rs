//! Discrete-event simulation of the **transmit pipeline**:
//!
//! ```text
//! host descriptor ─► engine: packet setup
//!                      │
//!        host memory ══╪═ DMA bursts over the bus ═► adaptor memory
//!                      │                                │
//!                      └► engine: per-cell segmentation ┘
//!                             (header, CRC, HEC)
//!                                   │ (per-VC pacer)
//!                                   ▼
//!                         output cell FIFO ─► framer slot every
//!                                             708 ns (OC-12) / 2.83 µs (OC-3)
//! ```
//!
//! Three serial resources can each be the bottleneck — the engine (one
//! task at a time), the bus (burst-granular, shared), and the link (one
//! cell per payload slot). The simulation lets them contend and
//! backpressure each other exactly as the hardware would:
//!
//! * at most one cell of a VC is "in flight" between segmentation and
//!   the FIFO — segmentation stalls when the FIFO is full;
//! * DMA bursts for a packet are issued serially and share the bus FCFS;
//! * multiple VCs segment concurrently (their engine tasks interleave),
//!   which is how per-VC *pacing* can hold one VC's cells back without
//!   idling the interface.
//!
//! The simulation works on packet metadata (lengths, VCs), not payload
//! octets: timing is what is under test here; the byte-exact data path
//! lives in [`crate::nic`] and is exercised by the integration tests.

use crate::bus::{Bus, BusConfig};
use crate::engine::{HwPartition, ProtocolEngine, TaskKind};
use hni_aal::AalType;
use hni_atm::{Gcra, VcId};
use hni_sim::{Duration, EventQueue, Histogram, Summary, Time};
use hni_sonet::LineRate;
use hni_telemetry::{
    Activity, Component, NullProfiler, NullTracer, Profiler, Stage, TraceEvent, Tracer, VcMetrics,
};
use std::collections::VecDeque;

/// Transmit-pipeline configuration.
#[derive(Clone, Debug)]
pub struct TxConfig {
    /// Link rate the framer drains at.
    pub rate: LineRate,
    /// Engine speed in MIPS.
    pub mips: f64,
    /// Hardware/software split.
    pub partition: HwPartition,
    /// Bus parameters.
    pub bus: BusConfig,
    /// Output FIFO depth in cells.
    pub fifo_cells: usize,
    /// Whether per-VC GCRA pacing is enforced.
    pub pacing: bool,
    /// Adaptation layer (sets cells-per-packet arithmetic).
    pub aal: AalType,
}

impl TxConfig {
    /// The architecture's design point at a given rate.
    pub fn paper(rate: LineRate) -> Self {
        TxConfig {
            rate,
            mips: 25.0,
            partition: HwPartition::paper_split(),
            bus: BusConfig::default(),
            fifo_cells: 16,
            pacing: false,
            aal: AalType::Aal5,
        }
    }
}

/// One packet offered to the transmit path.
#[derive(Clone, Copy, Debug)]
pub struct TxPacket {
    /// Connection to send on.
    pub vc: VcId,
    /// SDU length in octets.
    pub len: usize,
    /// When the descriptor reaches the interface.
    pub arrival: Time,
    /// Peak cell rate for pacing (cells/s); `None` = line rate.
    pub pcr: Option<f64>,
}

/// Results of a transmit simulation run.
#[derive(Clone, Debug)]
pub struct TxReport {
    /// Packets fully transmitted.
    pub packets_sent: u64,
    /// Cells put on the line.
    pub cells_sent: u64,
    /// SDU octets carried by completed packets.
    pub payload_octets: u64,
    /// Time the last cell left the framer.
    pub finished_at: Time,
    /// Goodput in bits/second (SDU octets over the whole run).
    pub goodput_bps: f64,
    /// Engine busy time.
    pub engine_busy: Duration,
    /// Engine utilization.
    pub engine_util: f64,
    /// Bus busy time.
    pub bus_busy: Duration,
    /// Bus utilization.
    pub bus_util: f64,
    /// Fraction of framer slots that carried a data cell.
    pub link_util: f64,
    /// Packet latency (descriptor arrival → last cell on line), ps:
    /// exact count, mean, min and max, plus the always-on log₂
    /// p50/p90/p99/p999 bands — the tail a mean hides.
    pub latency_hist: Histogram,
    /// Per-VC cell volume at bounded cardinality: exact sharded totals
    /// plus the space-saving heavy-hitter top-K (always on, O(K)).
    pub vc_cells: VcMetrics,
    /// Peak output-FIFO occupancy.
    pub fifo_peak: u64,
    /// Every cell's departure from the framer, in line order — the
    /// arrival schedule the end-to-end composition ([`crate::e2esim`])
    /// feeds to the receive pipeline.
    pub departures: Vec<CellDeparture>,
}

impl TxReport {
    /// Inter-departure times of `vc`'s cells, µs (jitter analysis),
    /// derived from [`TxReport::departures`]; `packets` is the workload
    /// the report ran, which names each departing cell's VC. Empty for a
    /// VC with fewer than two departures.
    pub fn interdeparture_us(&self, packets: &[TxPacket], vc: VcId) -> Summary {
        let mut gaps = Summary::new();
        let mut prev = None;
        for d in self.departures.iter().filter(|d| packets[d.pkt].vc == vc) {
            if let Some(p) = prev {
                gaps.record_us(d.at.saturating_since(p));
            }
            prev = Some(d.at);
        }
        gaps
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellState {
    /// No cell being worked on (waiting for bytes or nothing left).
    Idle,
    /// A per-cell engine task is queued/running.
    EngineQueued,
    /// The cell is built, waiting for pacer/FIFO admission.
    BuiltWaiting,
}

struct Pkt {
    idx: usize,
    len: usize,
    cells_total: usize,
    bursts_total: u32,
    bursts_issued: u32,
    bytes_fetched: usize,
    cells_built: usize,
    cells_pushed: usize,
    cell_state: CellState,
}

struct VcCtx {
    /// Position of this context in the contexts vector (stable).
    index: usize,
    vc: VcId,
    waiting: VecDeque<usize>,
    cur: Option<Pkt>,
    gcra: Option<Gcra>,
}

#[derive(Clone, Copy, Debug)]
enum ETask {
    Setup(usize),
    Burst(usize),
    Cell(usize),
    Complete(usize),
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrive(usize),
    EngineDone(ETask),
    BurstDone(usize),
    PacerRelease(usize),
    FramerSlot,
}

/// A cell departure observed at the framer (for end-to-end composition).
#[derive(Clone, Copy, Debug)]
pub struct CellDeparture {
    /// When the cell left on the line.
    pub at: Time,
    /// Index of its packet in the workload.
    pub pkt: usize,
    /// Whether it was the packet's final cell.
    pub is_last: bool,
}

/// Run the transmit pipeline over `packets` (need not be sorted).
pub fn run_tx(cfg: &TxConfig, packets: &[TxPacket]) -> TxReport {
    run_tx_full(cfg, packets, &mut NullTracer, &mut NullProfiler)
}

/// [`run_tx`] with probes attached. `tracer` receives a structured
/// [`TraceEvent`] at every pipeline stage boundary (descriptor fetch,
/// setup span, DMA bursts, segmentation spans, FIFO admission, framer
/// hand-off). `profiler` is charged every simulated interval: engine
/// busy time and its classified stalls (`tx.engine`), bus data and
/// arbitration cycles (`tx.bus`), framer cell slots (`tx.link`), and the
/// output-FIFO occupancy gauge (`tx.fifo`). Probes only observe: the
/// report is the one [`run_tx`] returns.
pub fn run_tx_full(
    cfg: &TxConfig,
    packets: &[TxPacket],
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) -> TxReport {
    let engine = ProtocolEngine::new(cfg.mips, &cfg.partition);
    let mut bus = Bus::new(cfg.bus);
    let slot = cfg.rate.cell_slot_time();

    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut ctxs: Vec<VcCtx> = Vec::new();
    // VC → context index through the sharded connection table: the TX
    // side's analogue of the receive CAM lookup.
    let mut ctx_of: hni_atm::VcTable<usize> = hni_atm::VcTable::new();

    // Sort arrivals into the event queue.
    let mut order: Vec<usize> = (0..packets.len()).collect();
    order.sort_by_key(|&i| packets[i].arrival);
    for i in order {
        q.schedule(packets[i].arrival, Ev::Arrive(i));
    }

    let mut engine_q: VecDeque<ETask> = VecDeque::new();
    let mut engine_busy = false;
    let mut engine_busy_total = Duration::ZERO;
    // Profiler bookkeeping. `bursts_in_flight` is maintained even with
    // the profiler off (one integer per burst, no behavioral effect) so
    // the hot path stays branch-identical; the idle marker only exists
    // while profiling.
    let mut bursts_in_flight: u32 = 0;
    let mut engine_idle_since: Option<(Time, Activity)> = None;

    let mut fifo: VecDeque<(usize, bool, usize)> = VecDeque::new(); // (ctx, is_last, pkt idx)
    let mut fifo_peak: u64 = 0;
    let mut pending_push: VecDeque<usize> = VecDeque::new();
    let mut framer_active = false;

    let mut packets_sent = 0u64;
    let mut cells_sent = 0u64;
    let mut payload_octets = 0u64;
    let mut finished_at = Time::ZERO;
    let mut latency_hist = Histogram::new();
    let mut vc_cells = VcMetrics::new();
    let mut slots_elapsed: u64 = 0;
    let mut departures = Vec::new();

    // Helper closures are impossible with this much shared state; a
    // small macro keeps the engine dispatch readable instead.
    macro_rules! kick_engine {
        ($q:expr, $now:expr) => {
            if !engine_busy {
                if let Some(task) = engine_q.pop_front() {
                    engine_busy = true;
                    let t = match task {
                        ETask::Setup(_) => engine.task_time(TaskKind::TxPacketSetup),
                        ETask::Burst(_) => engine.task_time(TaskKind::TxDmaBurst),
                        ETask::Cell(_) => {
                            engine.task_time(TaskKind::TxCellSegment)
                                + engine.task_time(TaskKind::TxCellCrc)
                                + engine.task_time(TaskKind::TxHec)
                        }
                        ETask::Complete(_) => engine.task_time(TaskKind::TxPacketComplete),
                    };
                    engine_busy_total += t;
                    if profiler.enabled() {
                        if let Some((since, cause)) = engine_idle_since.take() {
                            profiler.charge(
                                Component::TxEngine,
                                cause,
                                since,
                                $now.saturating_since(since),
                            );
                        }
                        profiler.charge(Component::TxEngine, Activity::Busy, $now, t);
                    }
                    if tracer.enabled() {
                        // Open a span for the engine's per-packet setup and
                        // per-cell segmentation work (closed at EngineDone).
                        let stage = match task {
                            ETask::Setup(_) => TaskKind::TxPacketSetup.trace_stage(),
                            ETask::Cell(_) => TaskKind::TxCellSegment.trace_stage(),
                            ETask::Complete(_) => TaskKind::TxPacketComplete.trace_stage(),
                            ETask::Burst(_) => None,
                        };
                        let (ETask::Setup(ci)
                        | ETask::Burst(ci)
                        | ETask::Cell(ci)
                        | ETask::Complete(ci)) = task;
                        if let (Some(stage), Some(pkt)) = (stage, ctxs[ci].cur.as_ref()) {
                            tracer.record(
                                TraceEvent::enter($now, stage)
                                    .vc(ctxs[ci].vc.cam_key())
                                    .pkt(pkt.idx),
                            );
                        }
                    }
                    $q.schedule_in(t, Ev::EngineDone(task));
                } else if profiler.enabled() && engine_idle_since.is_none() {
                    // The engine goes idle here; classify the cause at
                    // the moment the stall begins. Outstanding DMA means
                    // the next cell is waiting on the bus; a cell parked
                    // in `pending_push` means segmentation is blocked on
                    // FIFO space; otherwise there is simply no work.
                    let cause = if bursts_in_flight > 0 {
                        Activity::StalledBus
                    } else if !pending_push.is_empty() {
                        Activity::StalledFifo
                    } else {
                        Activity::Idle
                    };
                    engine_idle_since = Some(($now, cause));
                }
            }
        };
    }

    macro_rules! ensure_framer {
        ($q:expr) => {
            if !framer_active {
                framer_active = true;
                $q.schedule_in(slot, Ev::FramerSlot);
            }
        };
    }

    let payload_per_cell = cfg.aal.payload_per_cell();

    // --- main event loop ---
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Arrive(i) => {
                let p = &packets[i];
                if tracer.enabled() {
                    tracer.record(
                        TraceEvent::instant(now, Stage::TxDescriptor)
                            .vc(p.vc.cam_key())
                            .pkt(i),
                    );
                }
                let ci = {
                    let ctxs = &mut ctxs;
                    *ctx_of
                        .get_or_insert_with(p.vc.cam_key() as u64, || {
                            ctxs.push(VcCtx {
                                index: ctxs.len(),
                                vc: p.vc,
                                waiting: VecDeque::new(),
                                cur: None,
                                gcra: None,
                            });
                            ctxs.len() - 1
                        })
                        .expect("unbounded table never refuses")
                        .1
                };
                ctxs[ci].waiting.push_back(i);
                if ctxs[ci].cur.is_none() {
                    start_next_packet(&mut ctxs[ci], packets, cfg, &mut engine_q);
                    kick_engine!(q, now);
                }
            }
            Ev::EngineDone(task) => {
                engine_busy = false;
                match task {
                    ETask::Setup(ci) => {
                        if tracer.enabled() {
                            let c = &ctxs[ci];
                            let idx = c.cur.as_ref().expect("setup without packet").idx;
                            tracer.record(
                                TraceEvent::exit(now, Stage::TxSetup)
                                    .vc(c.vc.cam_key())
                                    .pkt(idx),
                            );
                        }
                        let pkt = ctxs[ci].cur.as_mut().expect("setup without packet");
                        if pkt.bursts_total == 0 || pkt.len == 0 {
                            pkt.bytes_fetched = pkt.len;
                            try_start_cell(&mut ctxs[ci], &mut engine_q, payload_per_cell);
                        } else {
                            issue_burst(
                                ci,
                                &mut ctxs[ci],
                                cfg,
                                &engine,
                                &mut engine_q,
                                &mut bus,
                                now,
                                &mut q,
                                profiler,
                                &mut bursts_in_flight,
                            );
                        }
                    }
                    ETask::Burst(ci) => {
                        // Engine part done: burst occupies the bus now.
                        let pkt = ctxs[ci].cur.as_ref().expect("burst without packet");
                        let bi = pkt.bursts_issued - 1;
                        let words = cfg.bus.burst_words(pkt.len, bi);
                        let done = bus.grant(now, words, Component::TxBus, profiler);
                        bursts_in_flight += 1;
                        q.schedule(done, Ev::BurstDone(ci));
                    }
                    ETask::Cell(ci) => {
                        let pkt = ctxs[ci].cur.as_mut().expect("cell without packet");
                        pkt.cells_built += 1;
                        pkt.cell_state = CellState::BuiltWaiting;
                        if tracer.enabled() {
                            let c = &ctxs[ci];
                            let pkt = c.cur.as_ref().expect("cell without packet");
                            tracer.record(
                                TraceEvent::exit(now, Stage::TxSegment)
                                    .vc(c.vc.cam_key())
                                    .pkt(pkt.idx)
                                    .cell(pkt.cells_built as u64 - 1),
                            );
                        }
                        attempt_push(
                            ci,
                            &mut ctxs,
                            cfg,
                            now,
                            &mut q,
                            &mut fifo,
                            &mut fifo_peak,
                            &mut pending_push,
                            &mut engine_q,
                            payload_per_cell,
                            tracer,
                            profiler,
                        );
                        ensure_framer!(q);
                    }
                    ETask::Complete(ci) => {
                        if tracer.enabled() {
                            let c = &ctxs[ci];
                            let idx = c.cur.as_ref().expect("complete without packet").idx;
                            tracer.record(
                                TraceEvent::exit(now, Stage::TxComplete)
                                    .vc(c.vc.cam_key())
                                    .pkt(idx),
                            );
                        }
                        let ctx = &mut ctxs[ci];
                        ctx.cur = None;
                        if !ctx.waiting.is_empty() {
                            start_next_packet(ctx, packets, cfg, &mut engine_q);
                        }
                    }
                }
                kick_engine!(q, now);
            }
            Ev::BurstDone(ci) => {
                bursts_in_flight -= 1;
                let (more, added, idx) = {
                    let pkt = ctxs[ci].cur.as_mut().expect("burst done without packet");
                    let per = cfg.bus.max_burst_words as usize * cfg.bus.word_bytes;
                    let before = pkt.bytes_fetched;
                    pkt.bytes_fetched = (before + per).min(pkt.len);
                    (
                        pkt.bursts_issued < pkt.bursts_total,
                        pkt.bytes_fetched - before,
                        pkt.idx,
                    )
                };
                if tracer.enabled() {
                    tracer.record(
                        TraceEvent::instant(now, Stage::TxDmaBurst)
                            .vc(ctxs[ci].vc.cam_key())
                            .pkt(idx)
                            .arg(added as u64),
                    );
                }
                if more {
                    issue_burst(
                        ci,
                        &mut ctxs[ci],
                        cfg,
                        &engine,
                        &mut engine_q,
                        &mut bus,
                        now,
                        &mut q,
                        profiler,
                        &mut bursts_in_flight,
                    );
                }
                try_start_cell(&mut ctxs[ci], &mut engine_q, payload_per_cell);
                kick_engine!(q, now);
            }
            Ev::PacerRelease(ci) => {
                attempt_push(
                    ci,
                    &mut ctxs,
                    cfg,
                    now,
                    &mut q,
                    &mut fifo,
                    &mut fifo_peak,
                    &mut pending_push,
                    &mut engine_q,
                    payload_per_cell,
                    tracer,
                    profiler,
                );
                ensure_framer!(q);
                kick_engine!(q, now);
            }
            Ev::FramerSlot => {
                slots_elapsed += 1;
                if let Some((ci, is_last, pkt_idx)) = fifo.pop_front() {
                    cells_sent += 1;
                    // Always-on per-VC accounting: O(K) scan, no alloc,
                    // purely observational (53 wire octets per cell).
                    vc_cells.record_cell(ctxs[ci].vc.cam_key(), 53);
                    if profiler.enabled() {
                        // The cell occupied the slot that just elapsed.
                        let from = Time::from_ps(now.as_ps().saturating_sub(slot.as_ps()));
                        profiler.charge(Component::TxLink, Activity::Transfer, from, slot);
                        profiler.gauge(Component::TxFifo, now, fifo.len() as u64);
                    }
                    if tracer.enabled() {
                        tracer.record(
                            TraceEvent::instant(now, Stage::TxFramer)
                                .vc(ctxs[ci].vc.cam_key())
                                .pkt(pkt_idx)
                                .cell(cells_sent - 1)
                                .arg(fifo.len() as u64),
                        );
                    }
                    departures.push(CellDeparture {
                        at: now,
                        pkt: pkt_idx,
                        is_last,
                    });
                    finished_at = now;
                    if is_last {
                        packets_sent += 1;
                        payload_octets += packets[pkt_idx].len as u64;
                        let lat = now.saturating_since(packets[pkt_idx].arrival);
                        latency_hist.record_duration(lat);
                    }
                }
                // Admit waiting VCs into freed FIFO space.
                let mut rounds = pending_push.len();
                while rounds > 0 && fifo.len() < cfg.fifo_cells {
                    rounds -= 1;
                    if let Some(ci) = pending_push.pop_front() {
                        attempt_push(
                            ci,
                            &mut ctxs,
                            cfg,
                            now,
                            &mut q,
                            &mut fifo,
                            &mut fifo_peak,
                            &mut pending_push,
                            &mut engine_q,
                            payload_per_cell,
                            tracer,
                            profiler,
                        );
                    }
                }
                kick_engine!(q, now);
                // Keep the framer running while anything is in flight.
                let work_left = !fifo.is_empty()
                    || !pending_push.is_empty()
                    || ctxs
                        .iter()
                        .any(|c| c.cur.is_some() || !c.waiting.is_empty())
                    || !engine_q.is_empty()
                    || engine_busy
                    || !q.is_empty();
                if work_left {
                    q.schedule_in(slot, Ev::FramerSlot);
                } else {
                    framer_active = false;
                }
            }
        }
    }

    let end = finished_at.max(q.now());
    let elapsed_s = end.saturating_since(Time::ZERO).as_s_f64();
    TxReport {
        packets_sent,
        cells_sent,
        payload_octets,
        finished_at,
        goodput_bps: if elapsed_s > 0.0 {
            payload_octets as f64 * 8.0 / elapsed_s
        } else {
            0.0
        },
        engine_busy: engine_busy_total,
        engine_util: if elapsed_s > 0.0 {
            engine_busy_total.as_s_f64() / elapsed_s
        } else {
            0.0
        },
        bus_busy: bus.busy_time(),
        bus_util: bus.utilization(end),
        link_util: if slots_elapsed > 0 {
            cells_sent as f64 / slots_elapsed as f64
        } else {
            0.0
        },
        latency_hist,
        vc_cells,
        fifo_peak,
        departures,
    }
}

fn start_next_packet(
    ctx: &mut VcCtx,
    packets: &[TxPacket],
    cfg: &TxConfig,
    engine_q: &mut VecDeque<ETask>,
) {
    let idx = ctx.waiting.pop_front().expect("caller checked non-empty");
    let p = &packets[idx];
    let cells_total = cfg.aal.cells_for_sdu(p.len);
    let bursts_total = cfg.bus.bursts_for(p.len);
    if cfg.pacing {
        let pcr = p.pcr.unwrap_or_else(|| cfg.rate.cell_slots_per_second());
        // Fresh GCRA per VC, persistent across its packets.
        if ctx.gcra.is_none() {
            ctx.gcra = Some(Gcra::from_rate(pcr, 0.0));
        }
    }
    let ci = ctx.index;
    ctx.cur = Some(Pkt {
        idx,
        len: p.len,
        cells_total,
        bursts_total,
        bursts_issued: 0,
        bytes_fetched: 0,
        cells_built: 0,
        cells_pushed: 0,
        cell_state: CellState::Idle,
    });
    engine_q.push_back(ETask::Setup(ci));
}

#[allow(clippy::too_many_arguments)]
fn issue_burst(
    ci: usize,
    ctx: &mut VcCtx,
    cfg: &TxConfig,
    engine: &ProtocolEngine,
    engine_q: &mut VecDeque<ETask>,
    bus: &mut Bus,
    now: Time,
    q: &mut EventQueue<Ev>,
    profiler: &mut dyn Profiler,
    bursts_in_flight: &mut u32,
) {
    let pkt = ctx.cur.as_mut().expect("burst for missing packet");
    debug_assert!(pkt.bursts_issued < pkt.bursts_total);
    pkt.bursts_issued += 1;
    if engine.partition.in_hardware(TaskKind::TxDmaBurst) {
        // Hardware sequencer: straight to the bus.
        let bi = pkt.bursts_issued - 1;
        let words = cfg.bus.burst_words(pkt.len, bi);
        let done = bus.grant(now, words, Component::TxBus, profiler);
        *bursts_in_flight += 1;
        q.schedule(done, Ev::BurstDone(ci));
    } else {
        engine_q.push_back(ETask::Burst(ci));
    }
}

fn try_start_cell(ctx: &mut VcCtx, engine_q: &mut VecDeque<ETask>, payload_per_cell: usize) {
    let ci = ctx.index;
    let Some(pkt) = ctx.cur.as_mut() else { return };
    if pkt.cell_state != CellState::Idle {
        return;
    }
    if pkt.cells_built >= pkt.cells_total {
        return;
    }
    let needed = ((pkt.cells_built + 1) * payload_per_cell).min(pkt.len);
    if pkt.bytes_fetched < needed {
        return;
    }
    pkt.cell_state = CellState::EngineQueued;
    engine_q.push_back(ETask::Cell(ci));
}

#[allow(clippy::too_many_arguments)]
fn attempt_push(
    ci: usize,
    ctxs: &mut [VcCtx],
    cfg: &TxConfig,
    now: Time,
    q: &mut EventQueue<Ev>,
    fifo: &mut VecDeque<(usize, bool, usize)>,
    fifo_peak: &mut u64,
    pending_push: &mut VecDeque<usize>,
    engine_q: &mut VecDeque<ETask>,
    payload_per_cell: usize,
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) {
    let ctx = &mut ctxs[ci];
    let Some(pkt) = ctx.cur.as_mut() else { return };
    if pkt.cell_state != CellState::BuiltWaiting {
        return;
    }
    // Pacer gate.
    if cfg.pacing {
        if let Some(g) = &ctx.gcra {
            let t = g.earliest_conforming(now);
            if t > now {
                q.schedule(t, Ev::PacerRelease(ci));
                return;
            }
        }
    }
    // FIFO gate.
    if fifo.len() >= cfg.fifo_cells {
        if !pending_push.contains(&ci) {
            pending_push.push_back(ci);
        }
        return;
    }
    // Push.
    let cell_idx = pkt.cells_pushed;
    let is_last = cell_idx + 1 == pkt.cells_total;
    fifo.push_back((ci, is_last, pkt.idx));
    *fifo_peak = (*fifo_peak).max(fifo.len() as u64);
    if profiler.enabled() {
        profiler.gauge(Component::TxFifo, now, fifo.len() as u64);
    }
    if tracer.enabled() {
        tracer.record(
            TraceEvent::instant(now, Stage::TxFifoEnqueue)
                .vc(ctx.vc.cam_key())
                .pkt(pkt.idx)
                .cell(cell_idx as u64)
                .arg(fifo.len() as u64),
        );
    }
    pkt.cells_pushed += 1;
    pkt.cell_state = CellState::Idle;
    if let Some(g) = ctx.gcra.as_mut() {
        if cfg.pacing {
            g.stamp(now);
        }
    }
    if pkt.cells_pushed == pkt.cells_total {
        engine_q.push_back(ETask::Complete(ci));
    } else {
        try_start_cell(ctx, engine_q, payload_per_cell);
    }
}

/// Convenience workload: `n` back-to-back packets of `len` octets on one VC.
pub fn greedy_workload(n: usize, len: usize, vc: VcId) -> Vec<TxPacket> {
    (0..n)
        .map(|_| TxPacket {
            vc,
            len,
            arrival: Time::ZERO,
            pcr: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VcId {
        VcId::new(0, 64)
    }

    #[test]
    fn single_packet_completes() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let r = run_tx(&cfg, &greedy_workload(1, 9180, vc()));
        assert_eq!(r.packets_sent, 1);
        assert_eq!(r.cells_sent, 192); // 9180-byte AAL5 frame
        assert!(r.finished_at > Time::ZERO);
        assert_eq!(r.payload_octets, 9180);
    }

    #[test]
    fn zero_length_packet_still_sends_trailer_cell() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let r = run_tx(&cfg, &greedy_workload(1, 0, vc()));
        assert_eq!(r.packets_sent, 1);
        assert_eq!(r.cells_sent, 1);
    }

    #[test]
    fn large_packets_approach_link_payload_rate() {
        // 64 KiB packets, paper config, OC-12: the link must be the
        // bottleneck, so goodput ≈ payload rate × AAL5 efficiency.
        let cfg = TxConfig::paper(LineRate::Oc12);
        let r = run_tx(&cfg, &greedy_workload(50, 65000, vc()));
        let ceiling = LineRate::Oc12.payload_bps();
        assert!(
            r.goodput_bps > 0.9 * ceiling,
            "goodput {} vs {ceiling}",
            r.goodput_bps
        );
        assert!(r.goodput_bps < ceiling);
        assert!(r.link_util > 0.95, "link util {}", r.link_util);
    }

    #[test]
    fn all_software_is_engine_bound_at_oc12() {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.partition = HwPartition::all_software();
        let r = run_tx(&cfg, &greedy_workload(50, 65000, vc()));
        // Per-cell software cost = (12+150+10)/25 MIPS = 6.88 µs per cell
        // ≫ 708 ns slot: engine-bound at roughly a tenth of the link.
        assert!(r.engine_util > 0.95, "engine util {}", r.engine_util);
        assert!(
            r.goodput_bps < 0.2 * LineRate::Oc12.payload_bps(),
            "goodput {}",
            r.goodput_bps
        );
    }

    #[test]
    fn small_packets_pay_per_packet_overhead() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let small = run_tx(&cfg, &greedy_workload(400, 64, vc()));
        let large = run_tx(&cfg, &greedy_workload(10, 40_000, vc()));
        assert!(
            small.goodput_bps < large.goodput_bps,
            "small {} !< large {}",
            small.goodput_bps,
            large.goodput_bps
        );
    }

    #[test]
    fn throughput_monotone_in_packet_size() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let mut prev = 0.0;
        for len in [64, 256, 1024, 4096, 16384, 65000] {
            let r = run_tx(&cfg, &greedy_workload(20, len, vc()));
            assert!(
                r.goodput_bps > prev,
                "len {len}: {} !> {prev}",
                r.goodput_bps
            );
            prev = r.goodput_bps;
        }
    }

    #[test]
    fn oc3_slower_than_oc12_when_link_bound() {
        let r3 = run_tx(
            &TxConfig::paper(LineRate::Oc3),
            &greedy_workload(20, 65000, vc()),
        );
        let r12 = run_tx(
            &TxConfig::paper(LineRate::Oc12),
            &greedy_workload(20, 65000, vc()),
        );
        assert!(r12.goodput_bps > 3.5 * r3.goodput_bps);
    }

    #[test]
    fn pacing_spaces_cells_of_a_slow_vc() {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.pacing = true;
        // One VC paced to 10k cells/s: inter-departure must be ≈100 µs.
        let pkts = vec![TxPacket {
            vc: vc(),
            len: 480, // 11 cells
            arrival: Time::ZERO,
            pcr: Some(10_000.0),
        }];
        let r = run_tx(&cfg, &pkts);
        assert_eq!(r.packets_sent, 1);
        let jitter = r.interdeparture_us(&pkts, vc());
        assert!(
            (jitter.mean() - 100.0).abs() < 2.0,
            "mean inter-departure {} µs",
            jitter.mean()
        );
    }

    #[test]
    fn unpaced_cells_go_back_to_back() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let pkts = greedy_workload(1, 4800, vc());
        let r = run_tx(&cfg, &pkts);
        let d = r.interdeparture_us(&pkts, vc());
        // Back-to-back at OC-12 payload slots: ~0.708 µs.
        assert!(
            (d.mean() - 0.7078).abs() < 0.02,
            "mean inter-departure {} µs",
            d.mean()
        );
    }

    #[test]
    fn two_vcs_interleave() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let pkts = vec![
            TxPacket {
                vc: VcId::new(0, 64),
                len: 9180,
                arrival: Time::ZERO,
                pcr: None,
            },
            TxPacket {
                vc: VcId::new(0, 65),
                len: 9180,
                arrival: Time::ZERO,
                pcr: None,
            },
        ];
        let r = run_tx(&cfg, &pkts);
        assert_eq!(r.packets_sent, 2);
        assert_eq!(r.cells_sent, 384);
        // With interleaving, each VC's cells are spaced about twice the
        // slot time on average.
        for vc in [VcId::new(0, 64), VcId::new(0, 65)] {
            let s = r.interdeparture_us(&pkts, vc);
            assert!(s.mean() > 1.0, "interleaved spacing {}", s.mean());
        }
    }

    #[test]
    fn paced_vc_does_not_block_others() {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.pacing = true;
        let slow = VcId::new(0, 100);
        let fast = VcId::new(0, 101);
        let pkts = vec![
            TxPacket {
                vc: slow,
                len: 4800,
                arrival: Time::ZERO,
                pcr: Some(1000.0),
            },
            TxPacket {
                vc: fast,
                len: 48000,
                arrival: Time::ZERO,
                pcr: None,
            },
        ];
        let r = run_tx(&cfg, &pkts);
        assert_eq!(r.packets_sent, 2);
        // The fast VC must finish long before the slow one: its last cell
        // leaves within ~1.5 ms, while the slow VC needs ~100 ms.
        // finished_at reflects the slow VC.
        assert!(r.finished_at > Time::from_ms(90));
        // Fast VC inter-departures stay near slot rate (not pacer rate).
        let f = r.interdeparture_us(&pkts, fast);
        assert!(f.mean() < 2.0, "fast vc spacing {}", f.mean());
    }

    #[test]
    fn deterministic() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let a = run_tx(&cfg, &greedy_workload(30, 9180, vc()));
        let b = run_tx(&cfg, &greedy_workload(30, 9180, vc()));
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.cells_sent, b.cells_sent);
        assert_eq!(a.engine_busy, b.engine_busy);
    }

    #[test]
    fn fifo_peak_bounded_by_capacity() {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let r = run_tx(&cfg, &greedy_workload(20, 65000, vc()));
        assert!(r.fifo_peak <= cfg.fifo_cells as u64);
        assert!(r.fifo_peak > 0);
    }

    #[test]
    fn faster_engine_raises_engine_bound_throughput() {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.partition = HwPartition::all_software();
        let slow = run_tx(&cfg, &greedy_workload(20, 40_000, vc()));
        cfg.mips = 100.0;
        let fast = run_tx(&cfg, &greedy_workload(20, 40_000, vc()));
        assert!(fast.goodput_bps > 3.0 * slow.goodput_bps);
    }
}
