//! The receive side's **frame-fate machine**: one place that decides,
//! cell by cell, what becomes of every frame under reassembly.
//!
//! Receive is the hard direction because cells of any VC arrive in any
//! interleaving and each frame's fate is settled one cell at a time
//! under reassembly-memory pressure. [`FrameFates`] owns everything that
//! decision touches:
//!
//! * the [`BufferPool`] and its discard policy (drop-tail, EPD, PPD —
//!   the Early/Partial Packet Discard semantics of the ATM
//!   traffic-management literature);
//! * per-frame receive state: cells seen and retained, first and last
//!   activity, corrupt, doomed, sealed (last cell consumed) and
//!   resolved (delivered or failed);
//! * the run's [`CellLedger`], so every `discarded_*`, `dropped_pool`
//!   and `delivered_cells` count is made here and nowhere else;
//! * the trace events and the `rx.pool` gauge for the fates it decides.
//!
//! Both receive models drive it — `rxsim`'s open-loop pipeline and the
//! closed-loop transport — so the two agree on frame fates by
//! construction. What differs between them stays with the caller: the
//! input FIFO, engine tasks and delivery DMA in `rxsim`; the sender,
//! acks and the delivered-vs-superseded choice in the transport; and
//! each model's expiry-tick cadence.
//!
//! A frame's life, in the order a caller drives it:
//!
//! 1. [`open`](FrameFates::open) registers it (before its first cell);
//! 2. [`arrive`](FrameFates::arrive) per cell at the interface: stale
//!    check, then pool admission;
//! 3. [`store`](FrameFates::store) per admitted cell: pool append;
//! 4. [`seal`](FrameFates::seal) when its last cell is consumed, then
//!    [`validate`](FrameFates::validate) (CRC and cell count);
//! 5. [`deliver`](FrameFates::deliver) the validated frame.
//!
//! Frames that stall are purged by [`expire`](FrameFates::expire);
//! whatever is still open when a run ends is settled by
//! [`drain`](FrameFates::drain).

use crate::bufpool::{BufferPool, ChainKey, DiscardPolicy, PoolConfig, PoolError};
use hni_sim::{Duration, Time};
use hni_telemetry::{Component, Profiler, Stage, TraceEvent, Tracer};

/// Per-cell conservation ledger: every cell the link injected ends in
/// exactly one bucket, so `reconciles()` is the chaos-test invariant.
///
/// Closed-loop transports (`hni-transport`) inject the same cell's
/// payload more than once: a retransmitted frame is a *new* set of
/// cells on the wire, each owed its own fate. Two extra fields keep the
/// invariant exact under recovery: `injected_retx` records provenance
/// (how many of `injected` were retransmissions — a subset, not a
/// fate), and `discarded_superseded` is the fate of cells that arrived
/// intact for a frame some earlier copy had already delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellLedger {
    /// Cells injected at the far end (arrivals + link losses).
    pub injected: u64,
    /// Of `injected`, cells that were retransmissions (second or later
    /// copies of a frame sent by a closed-loop transport). Provenance,
    /// not a fate: these cells still land in exactly one bucket below.
    pub injected_retx: u64,
    /// Cells the link itself dropped (never reached the interface).
    pub dropped_link: u64,
    /// Cells lost to input-FIFO overrun.
    pub dropped_fifo: u64,
    /// Cells lost to buffer-pool exhaustion (drop-tail).
    pub dropped_pool: u64,
    /// Cells refused by Early Packet Discard.
    pub discarded_epd: u64,
    /// Cells cut (refused or reclaimed) by Partial Packet Discard.
    pub discarded_ppd: u64,
    /// Straggler cells for frames already resolved.
    pub discarded_stale: u64,
    /// Cells of frames that failed end-of-frame validation.
    pub discarded_crc: u64,
    /// Cells of chains purged by the reassembly-expiry timer.
    pub discarded_expired: u64,
    /// Cells of doomed frames abandoned at end of frame, and cells
    /// stored or still on the wire when a closed loop was cut off.
    pub discarded_abandoned: u64,
    /// Cells of frames that reassembled and validated intact but whose
    /// payload an earlier transmission had already delivered (spurious
    /// retransmission or wire duplication under a closed-loop
    /// transport). The receiver acks and discards them.
    pub discarded_superseded: u64,
    /// Cells that reached host memory inside a delivered frame.
    pub delivered_cells: u64,
}

impl CellLedger {
    /// Sum of every disposition bucket.
    pub fn accounted(&self) -> u64 {
        self.dropped_link
            + self.dropped_fifo
            + self.dropped_pool
            + self.discarded_epd
            + self.discarded_ppd
            + self.discarded_stale
            + self.discarded_crc
            + self.discarded_expired
            + self.discarded_abandoned
            + self.discarded_superseded
            + self.delivered_cells
    }

    /// The conservation invariant: no cell unaccounted, none counted
    /// twice, and retransmit provenance never exceeds what was injected.
    pub fn reconciles(&self) -> bool {
        self.accounted() == self.injected && self.injected_retx <= self.injected
    }
}

/// Index of one frame in a [`FrameFates`] table; also the frame's
/// buffer-chain key in the pool.
pub type FrameKey = usize;

/// What [`FrameFates::arrive`] decided for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// The frame was already resolved: a straggler, counted stale.
    Stale,
    /// The discard policy refused the cell (counted EPD or PPD) and
    /// doomed the frame.
    Refused {
        /// The cell was the frame's first.
        starts_frame: bool,
    },
    /// The cell may be stored.
    Admitted {
        /// The cell was the frame's first.
        starts_frame: bool,
    },
}

impl Arrival {
    /// Whether this cell opened its frame (arms a caller's expiry tick).
    pub fn starts_frame(self) -> bool {
        match self {
            Arrival::Stale => false,
            Arrival::Refused { starts_frame } | Arrival::Admitted { starts_frame } => starts_frame,
        }
    }
}

/// Where a validated frame's cells go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Into host memory: the frame is new.
    Host,
    /// Discarded: an earlier copy of the frame was already delivered.
    Superseded,
}

#[derive(Default)]
struct Frame {
    /// Connection, for trace labels.
    vc: u32,
    /// Frame identity in trace labels.
    pkt: usize,
    /// Cells the frame's length field promises.
    cells: u32,
    /// Cells offered to the pool.
    seen: u32,
    /// Cells currently stored in the frame's chain.
    retained: u32,
    first_activity: Option<Time>,
    /// Last cell arrival (the expiry clock).
    last_activity: Time,
    /// The link damaged at least one of its cells.
    corrupt: bool,
    /// A cell was lost or refused: the frame can never validate.
    doomed: bool,
    /// The last cell was consumed: the frame left reassembly and is no
    /// longer the expiry sweep's business.
    sealed: bool,
    /// Delivered or failed; anything arriving later is a straggler.
    resolved: bool,
}

impl Frame {
    /// A trace instant labelled with this frame.
    fn event(&self, now: Time, stage: Stage, arg: u64) -> TraceEvent {
        TraceEvent::instant(now, stage)
            .vc(self.vc)
            .pkt(self.pkt)
            .arg(arg)
    }
}

/// The receive-side frame-fate machine (see the module docs).
pub struct FrameFates {
    pool: BufferPool,
    frames: Vec<Frame>,
    /// Every frame below this index is resolved.
    floor: usize,
    failed: u64,
    /// Where every cell went. Callers own the buckets for what happens
    /// before a cell reaches the machine: `injected`, `injected_retx`,
    /// `dropped_link` and `dropped_fifo`.
    pub ledger: CellLedger,
}

impl FrameFates {
    /// An empty table over a fresh pool.
    pub fn new(pool: PoolConfig, policy: DiscardPolicy) -> Self {
        FrameFates {
            pool: BufferPool::with_policy(pool, policy),
            frames: Vec::new(),
            floor: 0,
            failed: 0,
            ledger: CellLedger::default(),
        }
    }

    /// Register a frame of `cells` cells on connection `vc`, labelled
    /// `pkt` in traces. Keys are handed out densely from 0.
    pub fn open(&mut self, vc: u32, pkt: usize, cells: u32) -> FrameKey {
        self.frames.push(Frame {
            vc,
            pkt,
            cells,
            ..Frame::default()
        });
        self.frames.len() - 1
    }

    /// A cell of frame `key` reached the interface at `now` (`cell`
    /// labels it in traces). Stragglers of resolved frames are counted
    /// stale; otherwise the frame's activity clock runs and the pool's
    /// discard policy admits or refuses the cell. A refused last cell
    /// still ends the frame: [`seal`](Self::seal) it.
    pub fn arrive(
        &mut self,
        now: Time,
        key: FrameKey,
        cell: u64,
        corrupted: bool,
        tracer: &mut dyn Tracer,
    ) -> Arrival {
        let f = &mut self.frames[key];
        if f.resolved {
            // A duplicate or reordered copy arriving after the frame
            // reached a final disposition.
            self.ledger.discarded_stale += 1;
            if tracer.enabled() {
                tracer.record(f.event(now, Stage::RxStaleDiscard, 1).cell(cell));
            }
            return Arrival::Stale;
        }
        let starts_frame = f.first_activity.is_none();
        if starts_frame {
            f.first_activity = Some(now);
        }
        f.last_activity = now;
        f.corrupt |= corrupted;
        let stage = match self.pool.admit(key as ChainKey, starts_frame) {
            Err(PoolError::EarlyDiscard) => {
                self.ledger.discarded_epd += 1;
                Stage::RxEpdDiscard
            }
            Err(PoolError::PartialDiscard) => {
                self.ledger.discarded_ppd += 1;
                Stage::RxPpdDiscard
            }
            // `admit` never reports Exhausted; drop-tail pressure shows
            // up at append time instead.
            Ok(()) | Err(PoolError::Exhausted) => return Arrival::Admitted { starts_frame },
        };
        f.doomed = true;
        if tracer.enabled() {
            tracer.record(f.event(now, stage, 1).cell(cell));
        }
        Arrival::Refused { starts_frame }
    }

    /// Doom frame `key` for a loss the caller decided (an input-FIFO
    /// overrun): it can no longer validate.
    pub(crate) fn doom(&mut self, key: FrameKey) {
        self.frames[key].doomed = true;
    }

    /// Put one admitted cell of frame `key` into its chain. Returns
    /// `false` (and counts the cell stale) if the frame was resolved
    /// while the cell waited.
    pub fn store(
        &mut self,
        now: Time,
        key: FrameKey,
        tracer: &mut dyn Tracer,
        profiler: &mut dyn Profiler,
    ) -> bool {
        let f = &mut self.frames[key];
        if f.resolved {
            self.ledger.discarded_stale += 1;
            if tracer.enabled() {
                tracer.record(f.event(now, Stage::RxStaleDiscard, 1));
            }
            return false;
        }
        f.seen += 1;
        let (stage, arg) = match self.pool.append_cell(now, key as ChainKey) {
            Ok(()) => {
                f.retained += 1;
                (Stage::RxReasmAppend, f.seen as u64)
            }
            Err(PoolError::Exhausted) => {
                self.ledger.dropped_pool += 1;
                f.doomed = true;
                (Stage::RxPoolDrop, f.seen as u64)
            }
            Err(PoolError::PartialDiscard) => {
                // On the triggering cell PPD reclaims the frame's whole
                // stored chain (`retained` > 0 only then); the
                // follow-ups cost one cell each.
                let charge = std::mem::take(&mut f.retained) as u64 + 1;
                self.ledger.discarded_ppd += charge;
                f.doomed = true;
                (Stage::RxPpdDiscard, charge)
            }
            Err(PoolError::EarlyDiscard) => {
                self.ledger.discarded_epd += 1;
                f.doomed = true;
                (Stage::RxEpdDiscard, 1)
            }
        };
        if profiler.enabled() {
            profiler.gauge(Component::RxPool, now, self.pool.in_use() as u64);
        }
        if tracer.enabled() {
            tracer.record(f.event(now, stage, arg));
        }
        true
    }

    /// Frame `key`'s last cell was consumed. A doomed frame is abandoned
    /// (its stored cells freed and counted) and `None` returned; an
    /// intact one awaits [`validate`](Self::validate) and its cell
    /// count is returned.
    pub fn seal(&mut self, now: Time, key: FrameKey, profiler: &mut dyn Profiler) -> Option<u32> {
        let f = &mut self.frames[key];
        f.sealed = true;
        if !f.doomed {
            return Some(f.seen);
        }
        self.ledger.discarded_abandoned += self.fail(now, key, profiler);
        None
    }

    /// End-of-frame validation — the CRC-32 catch-all: damaged payload,
    /// or a cell count the length field contradicts (a duplicate
    /// slipped in, a cell went missing). A failing frame's cells are
    /// counted and freed. Returns whether the frame may be delivered.
    pub fn validate(
        &mut self,
        now: Time,
        key: FrameKey,
        tracer: &mut dyn Tracer,
        profiler: &mut dyn Profiler,
    ) -> bool {
        let f = &self.frames[key];
        if f.resolved {
            return false;
        }
        if !(f.doomed || f.corrupt || f.seen != f.cells) {
            return true;
        }
        let retained = self.fail(now, key, profiler);
        self.ledger.discarded_crc += retained;
        if tracer.enabled() {
            tracer.record(self.frames[key].event(now, Stage::RxValidateFail, retained));
        }
        false
    }

    /// Release validated frame `key`'s chain and resolve it, crediting
    /// its cells `to` the host or to the superseded bucket. Returns the
    /// cells credited.
    pub fn deliver(
        &mut self,
        now: Time,
        key: FrameKey,
        to: Delivery,
        profiler: &mut dyn Profiler,
    ) -> u64 {
        self.pool.release_chain(now, key as ChainKey);
        if profiler.enabled() {
            profiler.gauge(Component::RxPool, now, self.pool.in_use() as u64);
        }
        let f = &mut self.frames[key];
        f.resolved = true;
        let cells = std::mem::take(&mut f.retained) as u64;
        match to {
            Delivery::Host => self.ledger.delivered_cells += cells,
            Delivery::Superseded => self.ledger.discarded_superseded += cells,
        }
        cells
    }

    /// Purge every frame under reassembly that has been idle for at
    /// least `timeout`, so a lost end-of-frame cell cannot pin buffers
    /// forever. Returns whether any frame is still open (the caller
    /// keeps its expiry tick running).
    pub fn expire(
        &mut self,
        now: Time,
        timeout: Duration,
        tracer: &mut dyn Tracer,
        profiler: &mut dyn Profiler,
    ) -> bool {
        let mut any_open = false;
        for key in self.floor..self.frames.len() {
            let f = &self.frames[key];
            if f.resolved || f.sealed || f.first_activity.is_none() {
                continue;
            }
            if now.saturating_since(f.last_activity) < timeout {
                any_open = true;
                continue;
            }
            let retained = self.fail(now, key, profiler);
            self.ledger.discarded_expired += retained;
            if tracer.enabled() {
                tracer.record(self.frames[key].event(now, Stage::RxReasmExpire, retained));
            }
        }
        // Only resolved frames may fall below the floor: a frame whose
        // first cell is still on the wire (or was lost) can start later.
        while self.floor < self.frames.len() && self.frames[self.floor].resolved {
            self.floor += 1;
        }
        any_open
    }

    /// Settle every frame still open when the run ends (a closed loop
    /// cut off before the expiry timer reached it): its stored cells are
    /// abandoned and the frame fails.
    pub fn drain(&mut self, now: Time, profiler: &mut dyn Profiler) {
        for key in self.floor..self.frames.len() {
            let f = &self.frames[key];
            if !f.resolved && f.first_activity.is_some() {
                self.ledger.discarded_abandoned += self.fail(now, key, profiler);
            }
        }
    }

    /// Account `cells` that were still on the wire when the run was cut
    /// off: they never reached the interface, so they are abandoned.
    pub fn abandon_in_flight(&mut self, cells: u64) {
        self.ledger.discarded_abandoned += cells;
    }

    /// Fail frame `key`: release its chain and resolve it. Returns the
    /// cells it had stored, for the caller to put in a ledger bucket.
    fn fail(&mut self, now: Time, key: FrameKey, profiler: &mut dyn Profiler) -> u64 {
        let freed = self.pool.release_chain(now, key as ChainKey);
        if freed > 0 && profiler.enabled() {
            profiler.gauge(Component::RxPool, now, self.pool.in_use() as u64);
        }
        self.failed += 1;
        let f = &mut self.frames[key];
        f.resolved = true;
        f.doomed = true;
        std::mem::take(&mut f.retained) as u64
    }

    /// When frame `key`'s first cell arrived (`None` if none has).
    pub(crate) fn first_activity(&self, key: FrameKey) -> Option<Time> {
        self.frames[key].first_activity
    }

    /// Frame `key`'s connection and trace label, as given to
    /// [`open`](Self::open).
    pub fn label(&self, key: FrameKey) -> (u32, usize) {
        let f = &self.frames[key];
        (f.vc, f.pkt)
    }

    /// Frames that started and failed (any failure fate).
    pub(crate) fn failed_frames(&self) -> u64 {
        self.failed
    }

    /// The reassembly pool, for its occupancy statistics.
    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_telemetry::{NullProfiler, NullTracer};

    fn fates(total_buffers: usize, cells_per_buffer: usize, policy: DiscardPolicy) -> FrameFates {
        let pool = PoolConfig {
            total_buffers,
            cells_per_buffer,
        };
        FrameFates::new(pool, policy)
    }

    /// Inject one cell of `key` at `t_us`: it arrives and, if admitted,
    /// is stored at once.
    fn cell(f: &mut FrameFates, t_us: u64, key: FrameKey, corrupted: bool) -> Arrival {
        f.ledger.injected += 1;
        let now = Time::from_us(t_us);
        let arrival = f.arrive(now, key, 0, corrupted, &mut NullTracer);
        if let Arrival::Admitted { .. } = arrival {
            f.store(now, key, &mut NullTracer, &mut NullProfiler);
        }
        arrival
    }

    /// Inject `key`'s last cell, then seal and validate the frame.
    fn last_cell(f: &mut FrameFates, t_us: u64, key: FrameKey, corrupted: bool) -> bool {
        cell(f, t_us, key, corrupted);
        let now = Time::from_us(t_us);
        f.seal(now, key, &mut NullProfiler).is_some()
            && f.validate(now, key, &mut NullTracer, &mut NullProfiler)
    }

    fn deliver(f: &mut FrameFates, t_us: u64, key: FrameKey, to: Delivery) -> u64 {
        f.deliver(Time::from_us(t_us), key, to, &mut NullProfiler)
    }

    #[test]
    fn intact_frame_is_delivered() {
        let mut f = fates(4, 1, DiscardPolicy::DropTail);
        let k = f.open(7, 0, 3);
        assert_eq!(
            cell(&mut f, 1, k, false),
            Arrival::Admitted { starts_frame: true }
        );
        assert_eq!(
            cell(&mut f, 2, k, false),
            Arrival::Admitted {
                starts_frame: false
            }
        );
        assert!(last_cell(&mut f, 3, k, false));
        assert_eq!(f.pool().in_use(), 3);
        assert_eq!(deliver(&mut f, 4, k, Delivery::Host), 3);
        assert_eq!(f.ledger.delivered_cells, 3);
        assert_eq!(f.pool().in_use(), 0);
        assert_eq!(f.first_activity(k), Some(Time::from_us(1)));
        assert_eq!(f.failed_frames(), 0);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn redundant_copy_is_superseded() {
        let mut f = fates(4, 1, DiscardPolicy::DropTail);
        let k = f.open(0, 0, 2);
        cell(&mut f, 1, k, false);
        assert!(last_cell(&mut f, 2, k, false));
        assert_eq!(deliver(&mut f, 3, k, Delivery::Superseded), 2);
        assert_eq!(f.ledger.discarded_superseded, 2);
        assert_eq!(f.ledger.delivered_cells, 0);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn stragglers_of_resolved_frames_are_stale() {
        let mut f = fates(4, 1, DiscardPolicy::DropTail);
        let k = f.open(0, 0, 2);
        cell(&mut f, 1, k, false);
        cell(&mut f, 2, k, false);
        // A duplicate admitted before the frame resolved but stored
        // after (it sat in a FIFO) finds the chain gone.
        f.ledger.injected += 1;
        let dup = f.arrive(Time::from_us(2), k, 0, false, &mut NullTracer);
        assert_eq!(
            dup,
            Arrival::Admitted {
                starts_frame: false
            }
        );
        let now = Time::from_us(3);
        assert_eq!(f.seal(now, k, &mut NullProfiler), Some(2));
        assert!(f.validate(now, k, &mut NullTracer, &mut NullProfiler));
        deliver(&mut f, 3, k, Delivery::Host);
        assert!(!f.store(Time::from_us(4), k, &mut NullTracer, &mut NullProfiler));
        // A late copy arriving after resolution.
        assert_eq!(cell(&mut f, 5, k, false), Arrival::Stale);
        assert_eq!(f.ledger.discarded_stale, 2);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn epd_refuses_a_whole_frame_at_admission() {
        let mut f = fates(4, 1, DiscardPolicy::Epd { threshold: 2 });
        let a = f.open(0, 0, 3);
        let b = f.open(1, 1, 2);
        cell(&mut f, 1, a, false);
        cell(&mut f, 2, a, false);
        // Occupancy 2 reached the threshold: frame b is refused from its
        // first cell to its last, and its end fails it.
        assert_eq!(
            cell(&mut f, 3, b, false),
            Arrival::Refused { starts_frame: true }
        );
        assert!(!last_cell(&mut f, 4, b, false));
        assert_eq!(f.ledger.discarded_epd, 2);
        assert_eq!(f.failed_frames(), 1);
        // The admitted frame still completes.
        assert!(last_cell(&mut f, 5, a, false));
        deliver(&mut f, 6, a, Delivery::Host);
        assert_eq!(f.ledger.delivered_cells, 3);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn ppd_charges_the_stored_chain_plus_the_trigger_cell() {
        let mut f = fates(3, 1, DiscardPolicy::Ppd);
        let a = f.open(0, 0, 4);
        let b = f.open(1, 1, 2);
        cell(&mut f, 1, a, false);
        cell(&mut f, 2, a, false);
        cell(&mut f, 3, b, false);
        // The pool is full: a's third cell triggers PPD, which reclaims
        // a's two stored cells and charges them with the trigger.
        cell(&mut f, 4, a, false);
        assert_eq!(f.ledger.discarded_ppd, 3);
        assert_eq!(f.pool().in_use(), 1);
        // The tail is refused one cell at a time and the frame fails.
        assert!(!last_cell(&mut f, 5, a, false));
        assert_eq!(f.ledger.discarded_ppd, 4);
        assert_eq!(f.ledger.discarded_abandoned, 0);
        // The reclaimed space lets b complete.
        assert!(last_cell(&mut f, 6, b, false));
        deliver(&mut f, 7, b, Delivery::Host);
        assert_eq!(f.ledger.delivered_cells, 2);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn drop_tail_drops_cells_that_find_no_buffer() {
        let mut f = fates(1, 2, DiscardPolicy::DropTail);
        let a = f.open(0, 0, 2);
        let b = f.open(1, 1, 1);
        cell(&mut f, 1, a, false);
        // b's only cell needs a buffer the pool does not have.
        assert!(!last_cell(&mut f, 2, b, false));
        assert_eq!(f.ledger.dropped_pool, 1);
        // a's second cell fits in a's own container.
        assert!(last_cell(&mut f, 3, a, false));
        deliver(&mut f, 4, a, Delivery::Host);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn corrupt_or_miscounted_frames_fail_validation() {
        let mut f = fates(8, 1, DiscardPolicy::DropTail);
        // Damaged payload.
        let bad = f.open(0, 0, 2);
        cell(&mut f, 1, bad, true);
        assert!(!last_cell(&mut f, 2, bad, false));
        // A duplicated cell inflates the count the length field promised.
        let dup = f.open(1, 1, 2);
        cell(&mut f, 3, dup, false);
        cell(&mut f, 4, dup, false);
        assert!(!last_cell(&mut f, 5, dup, false));
        assert_eq!(f.ledger.discarded_crc, 2 + 3);
        assert_eq!(f.failed_frames(), 2);
        assert_eq!(f.pool().in_use(), 0);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn doomed_frame_is_abandoned_at_its_end() {
        let mut f = fates(8, 1, DiscardPolicy::DropTail);
        let k = f.open(0, 0, 3);
        cell(&mut f, 1, k, false);
        // The caller lost the second cell (input-FIFO overrun).
        f.ledger.injected += 1;
        f.ledger.dropped_fifo += 1;
        f.doom(k);
        assert!(!last_cell(&mut f, 3, k, false));
        assert_eq!(f.ledger.discarded_abandoned, 2);
        assert_eq!(f.pool().in_use(), 0);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn expiry_purges_stalled_frames_but_not_unstarted_ones() {
        let timeout = Duration::from_us(10);
        let mut f = fates(8, 1, DiscardPolicy::DropTail);
        // Frame 0's first cell is still on the wire when sweeps run.
        let late = f.open(0, 0, 2);
        let k = f.open(1, 1, 3);
        cell(&mut f, 1, k, false);
        cell(&mut f, 2, k, false);
        let sweep = |f: &mut FrameFates, t_us| {
            f.expire(
                Time::from_us(t_us),
                timeout,
                &mut NullTracer,
                &mut NullProfiler,
            )
        };
        assert!(sweep(&mut f, 5), "frame 1 is idle but not yet expired");
        assert!(!sweep(&mut f, 12), "frame 1 expired; nothing else open");
        assert_eq!(f.ledger.discarded_expired, 2);
        // Its tail is now a straggler.
        assert_eq!(cell(&mut f, 13, k, false), Arrival::Stale);
        // The unstarted frame was never stepped over: once it starts and
        // stalls, a later sweep still finds it.
        cell(&mut f, 20, late, false);
        assert!(sweep(&mut f, 25));
        assert!(!sweep(&mut f, 31));
        assert_eq!(f.ledger.discarded_expired, 3);
        assert_eq!(f.failed_frames(), 2);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }

    #[test]
    fn drain_abandons_what_is_still_open() {
        let mut f = fates(8, 1, DiscardPolicy::DropTail);
        let k = f.open(0, 0, 3);
        let _never_started = f.open(0, 1, 3);
        cell(&mut f, 1, k, false);
        cell(&mut f, 2, k, false);
        // One more cell was on the wire when the run was cut off.
        f.ledger.injected += 1;
        f.abandon_in_flight(1);
        f.drain(Time::from_us(3), &mut NullProfiler);
        assert_eq!(f.ledger.discarded_abandoned, 3);
        assert_eq!(f.failed_frames(), 1, "only started frames fail");
        assert_eq!(f.pool().in_use(), 0);
        assert!(f.ledger.reconciles(), "{:?}", f.ledger);
    }
}
