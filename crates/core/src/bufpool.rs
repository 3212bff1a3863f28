//! Adaptor reassembly memory: the buffer pool receive-side cells land in
//! while their frame completes.
//!
//! The receive pipeline cannot know a frame's length until its last cell
//! arrives, and cells of many VCs interleave arbitrarily — so adaptor
//! memory is organised as a pool of fixed-size buffers chained per
//! connection, with a free list. Two organisations are supported,
//! matching the options the era's designs weighed:
//!
//! * **cells_per_buffer = 1** — a linked list of single-cell buffers:
//!   no internal fragmentation, one pointer dereference per cell.
//! * **cells_per_buffer = k** (e.g. 32) — container buffers: k cell
//!   payloads plus a validity map per buffer; fewer, larger allocations,
//!   some waste at frame tails.
//!
//! The pool tracks exactly what buffer-sizing decisions need: buffers in
//! use over time (time-weighted mean and peak). A refused append means a
//! cell had nowhere to land — the frame is lost to *memory* pressure,
//! not link errors; real interfaces under-provisioned this and the loss
//! was mysterious at the time.
//!
//! ## Discard policies
//!
//! Plain drop-tail turns memory pressure into AAL5 goodput collapse:
//! the pool keeps accepting cells of frames that are already doomed
//! (one of their cells found no buffer), so under overload almost every
//! buffer holds a fragment that will fail its CRC. The two classic
//! remedies from the ATM traffic-management literature are supported as
//! a [`DiscardPolicy`]:
//!
//! * **EPD** (Early Packet Discard): refuse *whole new frames* at
//!   admission once occupancy crosses a threshold, keeping headroom for
//!   frames already in flight to complete.
//! * **PPD** (Partial Packet Discard): the moment one cell of a frame
//!   is lost to exhaustion, reclaim the frame's buffers immediately and
//!   refuse the rest of its cells — don't store what can't validate.
//!
//! The pool dooms the frame's chain key in both cases and reports every
//! refusal with its reason; the receive-side frame-fate machine
//! ([`crate::fate`]) turns those reasons into per-cell ledger counts.

use hni_sim::{OccupancyTracker, Time};
use std::collections::HashMap;

/// Identifies one buffer chain: one frame under reassembly (or awaiting
/// delivery DMA). Chains are per-*frame*, not per-connection — with
/// pipelined completion, a connection's next frame starts arriving while
/// the previous one still owns its buffers.
pub type ChainKey = u32;

/// Pool organisation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total buffers in adaptor memory.
    pub total_buffers: usize,
    /// Cell payloads per buffer (1 = per-cell linked list; >1 = containers).
    pub cells_per_buffer: usize,
}

impl PoolConfig {
    /// Octets of adaptor SRAM this configuration occupies, counting the
    /// 48-octet payload slots plus per-buffer overhead (next pointer,
    /// validity bitmap rounded to whole octets).
    pub fn sram_octets(&self) -> usize {
        let per_buffer = self.cells_per_buffer * 48 + 4 + self.cells_per_buffer.div_ceil(8);
        self.total_buffers * per_buffer
    }
}

/// Why a cell could not be stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The free list is empty (drop-tail: the frame is now doomed but
    /// its siblings keep consuming buffers).
    Exhausted,
    /// Early Packet Discard refused the frame at admission — occupancy
    /// had crossed the threshold when its first cell arrived.
    EarlyDiscard,
    /// Partial Packet Discard refused the cell — an earlier cell of the
    /// same frame was lost to exhaustion, so the tail is discarded and
    /// the frame's buffers were already reclaimed.
    PartialDiscard,
}

/// What the pool does when memory pressure bites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiscardPolicy {
    /// Accept every cell until the free list is empty; doomed frames
    /// keep consuming buffers. The baseline that collapses under load.
    #[default]
    DropTail,
    /// Early Packet Discard: refuse new frames once `threshold` buffers
    /// are in use (frames already admitted still get buffers).
    Epd {
        /// Occupancy (buffers in use) at which new frames are refused.
        threshold: usize,
    },
    /// Partial Packet Discard: on the first exhaustion loss within a
    /// frame, reclaim its buffers and refuse the rest of its cells.
    Ppd,
}

struct Chain {
    buffers: usize,
    cells_in_tail: usize,
}

/// The operational buffer pool.
pub struct BufferPool {
    cfg: PoolConfig,
    policy: DiscardPolicy,
    free: usize,
    chains: HashMap<ChainKey, Chain>,
    doomed: HashMap<ChainKey, PoolError>,
    occupancy: OccupancyTracker,
}

impl BufferPool {
    /// A drop-tail pool per `cfg`, all buffers free.
    pub fn new(cfg: PoolConfig) -> Self {
        BufferPool::with_policy(cfg, DiscardPolicy::DropTail)
    }

    /// A pool running the given discard policy.
    pub fn with_policy(cfg: PoolConfig, policy: DiscardPolicy) -> Self {
        assert!(cfg.total_buffers > 0 && cfg.cells_per_buffer > 0);
        if let DiscardPolicy::Epd { threshold } = policy {
            assert!(
                threshold > 0 && threshold <= cfg.total_buffers,
                "EPD threshold {threshold} outside 1..={}",
                cfg.total_buffers
            );
        }
        BufferPool {
            cfg,
            policy,
            free: cfg.total_buffers,
            chains: HashMap::new(),
            doomed: HashMap::new(),
            occupancy: OccupancyTracker::new(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Discard policy in force.
    pub fn policy(&self) -> DiscardPolicy {
        self.policy
    }

    /// Admission check, to be called when a cell *arrives* (before any
    /// engine work is spent on it). `starts_frame` marks the frame's
    /// first cell. Under EPD a new frame is refused outright when
    /// occupancy has crossed the threshold; cells of frames the policy
    /// has already doomed are refused with the dooming reason.
    pub fn admit(&mut self, conn: ChainKey, starts_frame: bool) -> Result<(), PoolError> {
        if let Some(&why) = self.doomed.get(&conn) {
            return Err(why);
        }
        if starts_frame {
            if let DiscardPolicy::Epd { threshold } = self.policy {
                if self.in_use() >= threshold {
                    self.doomed.insert(conn, PoolError::EarlyDiscard);
                    return Err(PoolError::EarlyDiscard);
                }
            }
        }
        Ok(())
    }

    /// Store one cell on chain `conn` at time `now`.
    pub fn append_cell(&mut self, now: Time, conn: ChainKey) -> Result<(), PoolError> {
        if let Some(&why) = self.doomed.get(&conn) {
            // A doomed frame's cell slipped past admission (e.g. it was
            // already in the FIFO): refuse it here, same reason.
            return Err(why);
        }
        let needs_buffer = match self.chains.get(&conn) {
            Some(chain) => chain.cells_in_tail == self.cfg.cells_per_buffer,
            None => true,
        };
        if needs_buffer {
            if self.free == 0 {
                if self.policy == DiscardPolicy::Ppd {
                    // Don't store what can't validate: reclaim the
                    // frame's buffers now and doom its tail.
                    self.release_chain(now, conn);
                    self.doomed.insert(conn, PoolError::PartialDiscard);
                    return Err(PoolError::PartialDiscard);
                }
                return Err(PoolError::Exhausted);
            }
            self.free -= 1;
            let in_use = (self.cfg.total_buffers - self.free) as u64;
            self.occupancy.set(now, in_use);
            let chain = self.chains.entry(conn).or_insert(Chain {
                buffers: 0,
                cells_in_tail: 0,
            });
            chain.buffers += 1;
            chain.cells_in_tail = 0;
        }
        let chain = self.chains.get_mut(&conn).expect("chain ensured above");
        chain.cells_in_tail += 1;
        Ok(())
    }

    /// Release a whole chain (frame delivered or abandoned). Also clears
    /// any policy doom on the key, so the key can be reused for a later
    /// frame. Returns the number of buffers freed.
    pub fn release_chain(&mut self, now: Time, conn: ChainKey) -> usize {
        self.doomed.remove(&conn);
        match self.chains.remove(&conn) {
            None => 0,
            Some(chain) => {
                self.free += chain.buffers;
                let in_use = (self.cfg.total_buffers - self.free) as u64;
                self.occupancy.set(now, in_use);
                chain.buffers
            }
        }
    }

    /// Buffers currently free.
    pub fn free_buffers(&self) -> usize {
        self.free
    }
    /// Buffers currently chained to connections.
    pub fn in_use(&self) -> usize {
        self.cfg.total_buffers - self.free
    }
    /// Cells a given connection currently holds (0 if no chain).
    pub fn cells_of(&self, conn: ChainKey) -> usize {
        self.chains
            .get(&conn)
            .map(|c| (c.buffers - 1) * self.cfg.cells_per_buffer + c.cells_in_tail)
            .unwrap_or(0)
    }
    /// Peak buffers in use.
    pub fn peak_in_use(&self) -> u64 {
        self.occupancy.peak()
    }
    /// Time-weighted mean buffers in use over `[0, end]`.
    pub fn mean_in_use(&self, end: Time) -> f64 {
        self.occupancy.mean(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(total: usize, k: usize) -> BufferPool {
        BufferPool::new(PoolConfig {
            total_buffers: total,
            cells_per_buffer: k,
        })
    }

    #[test]
    fn single_cell_buffers_one_per_cell() {
        let mut p = pool(10, 1);
        for _ in 0..4 {
            p.append_cell(Time::ZERO, 0).unwrap();
        }
        assert_eq!(p.in_use(), 4);
        assert_eq!(p.cells_of(0), 4);
        assert_eq!(p.release_chain(Time::ZERO, 0), 4);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn container_buffers_amortize() {
        let mut p = pool(10, 32);
        for _ in 0..33 {
            p.append_cell(Time::ZERO, 0).unwrap();
        }
        assert_eq!(p.in_use(), 2, "33 cells need two 32-cell containers");
        assert_eq!(p.cells_of(0), 33);
    }

    #[test]
    fn exhaustion_reported_and_counted() {
        let mut p = pool(2, 1);
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 1).unwrap();
        assert_eq!(p.append_cell(Time::ZERO, 2), Err(PoolError::Exhausted));
        // Releasing frees space again.
        p.release_chain(Time::ZERO, 0);
        assert!(p.append_cell(Time::ZERO, 2).is_ok());
    }

    #[test]
    fn chains_are_per_connection() {
        let mut p = pool(10, 32);
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 1).unwrap();
        // Two connections never share a container.
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.cells_of(0), 1);
        assert_eq!(p.cells_of(1), 1);
    }

    #[test]
    fn occupancy_statistics() {
        let mut p = pool(10, 1);
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 0).unwrap();
        p.release_chain(Time::from_us(1), 0);
        assert_eq!(p.peak_in_use(), 2);
        // 2 buffers for 1 µs, 0 for 1 µs → mean 1.
        let mean = p.mean_in_use(Time::from_us(2));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn sram_accounting() {
        // 256 single-cell buffers: 256 × (48 + 4 + 1) = 13,568 octets.
        let single = PoolConfig {
            total_buffers: 256,
            cells_per_buffer: 1,
        };
        assert_eq!(single.sram_octets(), 256 * 53);
        // 8 × 32-cell containers: 8 × (1536 + 4 + 4) = 12,352.
        let containers = PoolConfig {
            total_buffers: 8,
            cells_per_buffer: 32,
        };
        assert_eq!(containers.sram_octets(), 8 * 1544);
    }

    #[test]
    fn release_unknown_chain_is_zero() {
        let mut p = pool(4, 1);
        assert_eq!(p.release_chain(Time::ZERO, 9), 0);
    }

    #[test]
    fn drop_tail_admits_everything() {
        let mut p = pool(2, 1);
        assert_eq!(p.policy(), DiscardPolicy::DropTail);
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 1).unwrap();
        // Admission never refuses under drop-tail, even when full.
        assert!(p.admit(2, true).is_ok());
        assert_eq!(p.append_cell(Time::ZERO, 2), Err(PoolError::Exhausted));
        // Nothing is doomed: siblings still try (and fail).
        assert!(p.admit(2, false).is_ok());
        assert_eq!(p.append_cell(Time::ZERO, 2), Err(PoolError::Exhausted));
    }

    #[test]
    fn epd_refuses_new_frames_over_threshold() {
        let mut p = BufferPool::with_policy(
            PoolConfig {
                total_buffers: 4,
                cells_per_buffer: 1,
            },
            DiscardPolicy::Epd { threshold: 2 },
        );
        p.admit(0, true).unwrap();
        p.append_cell(Time::ZERO, 0).unwrap();
        p.admit(1, true).unwrap();
        p.append_cell(Time::ZERO, 1).unwrap();
        // Occupancy 2 ≥ threshold: frame 2 is refused at its first cell…
        assert_eq!(p.admit(2, true), Err(PoolError::EarlyDiscard));
        // …and every later cell of it, whether mid-frame or not.
        assert_eq!(p.admit(2, false), Err(PoolError::EarlyDiscard));
        // Frames already admitted still get buffers (the whole point).
        assert!(p.admit(0, false).is_ok());
        p.append_cell(Time::ZERO, 0).unwrap();
        // Release clears the doom so the key is reusable.
        p.release_chain(Time::ZERO, 2);
        p.release_chain(Time::ZERO, 0);
        p.release_chain(Time::ZERO, 1);
        assert!(p.admit(2, true).is_ok());
    }

    #[test]
    fn ppd_reclaims_and_dooms_the_tail() {
        let mut p = BufferPool::with_policy(
            PoolConfig {
                total_buffers: 3,
                cells_per_buffer: 1,
            },
            DiscardPolicy::Ppd,
        );
        // Frame 0 takes two buffers, frame 1 one: pool full.
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 0).unwrap();
        p.append_cell(Time::ZERO, 1).unwrap();
        // Frame 0's next cell finds no buffer: PPD reclaims both of its
        // buffers immediately and dooms the rest of the frame.
        assert_eq!(
            p.append_cell(Time::from_us(1), 0),
            Err(PoolError::PartialDiscard)
        );
        assert_eq!(p.free_buffers(), 2, "frame 0's buffers reclaimed");
        assert_eq!(p.admit(0, false), Err(PoolError::PartialDiscard));
        assert_eq!(
            p.append_cell(Time::from_us(1), 0),
            Err(PoolError::PartialDiscard)
        );
        // The reclaimed space lets other frames proceed.
        p.append_cell(Time::from_us(2), 2).unwrap();
        p.append_cell(Time::from_us(2), 2).unwrap();
    }

    #[test]
    #[should_panic(expected = "EPD threshold")]
    fn epd_threshold_must_fit_pool() {
        BufferPool::with_policy(
            PoolConfig {
                total_buffers: 4,
                cells_per_buffer: 1,
            },
            DiscardPolicy::Epd { threshold: 5 },
        );
    }
}
