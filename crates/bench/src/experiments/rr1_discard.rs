//! R-R1: goodput under reassembly-pool overload and cell loss for the
//! three degradation policies — drop-tail, EPD, PPD.
//!
//! The adaptor's reassembly memory is the scarce resource the paper's
//! receive architecture is built around. When more VCs interleave
//! frames than the pool can hold, drop-tail sheds *cells* from frames
//! that have already consumed buffers — every such frame dies on the
//! AAL5 CRC anyway, so the buffers it held and the cells it keeps
//! accepting are pure waste (the classic goodput collapse). Early
//! Packet Discard refuses whole frames at the first cell while the pool
//! is tight; Partial Packet Discard cuts a frame loose the moment a
//! cell cannot be buffered and reclaims its chain immediately. Both
//! turn wasted buffer-hold time into delivered frames.
//!
//! The grid crosses link cell-loss rate with pool overcommit (frames
//! in flight × buffers per frame ÷ pool buffers). The same seeded
//! workload and fault plan drive all three policies at each point, so
//! every comparison is paired.

use crate::table::{fmt_bps, Table};
use hni_aal::AalType;
use hni_core::rxsim::{run_rx, CellArrival, RxConfig, RxPktMeta, RxWorkload};
use hni_core::DiscardPolicy;
use hni_sim::{Duration, FaultPlan, Time};
use hni_sonet::LineRate;

/// Link cell-loss rates swept. 0.2% already dooms ~32% of 192-cell
/// frames on survival alone — past that every policy starves.
pub const LOSSES: [f64; 3] = [0.0, 0.001, 0.002];

/// Concurrent-VC counts swept — one frame in flight per VC, so this is
/// the number of frames competing for the pool. Two VCs fit comfortably
/// (0.4× demand, the control row); the rest overcommit the pool.
pub const VCS: [usize; 4] = [2, 4, 8, 16];

/// Frame size (octets) — 6 pool buffers per frame at 32 cells/buffer.
pub const FRAME_LEN: usize = 9180;

/// Fault-plan seed: one seed, every policy, every point — paired runs.
pub const SEED: u64 = 11;

/// Pool size (buffers). 32 × 32-cell buffers holds ~5.3 frames, so the
/// 8- and 16-VC rows overcommit the pool 1.5× and 3×.
const POOL_BUFFERS: usize = 32;

/// One grid point: goodput under each policy.
pub struct Point {
    /// Link cell-loss probability.
    pub loss: f64,
    /// Concurrent VCs (interleaved frames).
    pub n_vcs: usize,
    /// Demand on the pool: frames in flight × buffers/frame ÷ buffers.
    pub overcommit: f64,
    /// Drop-tail goodput, bits/s.
    pub drop_tail_bps: f64,
    /// EPD goodput, bits/s.
    pub epd_bps: f64,
    /// PPD goodput, bits/s.
    pub ppd_bps: f64,
}

impl Point {
    /// Whether this point overcommits the reassembly pool.
    pub fn overloaded(&self) -> bool {
        self.overcommit > 1.0
    }
}

fn cfg_with(policy: DiscardPolicy) -> RxConfig {
    let mut cfg = RxConfig::paper(LineRate::Oc12);
    cfg.pool.total_buffers = POOL_BUFFERS;
    cfg.pool.cells_per_buffer = 32;
    cfg.policy = policy;
    cfg
}

/// A staggered workload: each VC carries `1/n_vcs` of the aggregate
/// cell rate and is phase-shifted by a fraction of a frame, so frame
/// boundaries spread uniformly in time instead of the lockstep
/// round-robin of [`RxWorkload::uniform`] (where every frame starts and
/// ends in the same burst — a pattern no admission policy can regulate,
/// because occupancy at every admission instant is unrepresentative).
fn staggered(n_vcs: usize, pkts_per_vc: usize, len: usize, load: f64) -> RxWorkload {
    let cells_per_pkt = AalType::Aal5.cells_for_sdu(len);
    let slot = LineRate::Oc12.cell_slot_time().as_s_f64();
    let per_vc = Duration::from_s_f64(slot * n_vcs as f64 / load);
    let frame_span = slot * cells_per_pkt as f64 / load;
    let mut pkts = Vec::with_capacity(n_vcs * pkts_per_vc);
    let mut arrivals = Vec::with_capacity(n_vcs * pkts_per_vc * cells_per_pkt);
    for v in 0..n_vcs {
        let phase = Duration::from_s_f64(frame_span * v as f64 / n_vcs as f64);
        for p in 0..pkts_per_vc {
            let pkt = pkts.len();
            pkts.push(RxPktMeta {
                conn: v as u16,
                len,
                cells: cells_per_pkt,
            });
            for c in 0..cells_per_pkt {
                arrivals.push(CellArrival {
                    at: Time::ZERO + phase + per_vc * (p * cells_per_pkt + c) as u64,
                    pkt,
                    is_last: c + 1 == cells_per_pkt,
                    corrupted: false,
                });
            }
        }
    }
    arrivals.sort_by_key(|a| a.at);
    RxWorkload { arrivals, pkts }
}

/// Measure one grid point. `pkts_per_vc` scales inversely with the VC
/// count so every point offers the same total work.
pub fn measure(loss: f64, n_vcs: usize, pkts_per_vc: usize) -> Point {
    let wl = staggered(n_vcs, pkts_per_vc, FRAME_LEN, 1.0);
    let run = |policy: DiscardPolicy| {
        let cfg = RxConfig {
            link_faults: FaultPlan::loss(loss),
            link_seed: SEED,
            ..cfg_with(policy)
        };
        let r = run_rx(&cfg, &wl);
        debug_assert!(r.ledger.reconciles(), "{:?}", r.ledger);
        r.goodput_bps
    };
    let buffers_per_frame = FRAME_LEN.div_ceil(48 * 32);
    // Classic EPD setting: refuse new frames once occupancy eats into
    // the headroom one full frame needs to finish, so admission is a
    // promise the pool can keep.
    let threshold = POOL_BUFFERS - buffers_per_frame;
    Point {
        loss,
        n_vcs,
        overcommit: (n_vcs * buffers_per_frame) as f64 / POOL_BUFFERS as f64,
        drop_tail_bps: run(DiscardPolicy::DropTail),
        epd_bps: run(DiscardPolicy::Epd { threshold }),
        ppd_bps: run(DiscardPolicy::Ppd),
    }
}

/// The full grid: 256 frames of offered work per point, but never fewer
/// than 12 frames per VC — occupancy-threshold admission needs a few
/// frame lifetimes to regulate after the cold-start cohort, and a run
/// that ends inside that transient measures the transient, not the
/// policy. Points run in parallel under the `HNI_JOBS` worker pool
/// (each point rebuilds its workload and fault RNG from the grid
/// coordinates and [`SEED`], so parallel order cannot leak in); the
/// output order is the serial grid order.
pub fn sweep() -> Vec<Point> {
    let mut grid = Vec::new();
    for &loss in &LOSSES {
        for &n_vcs in &VCS {
            grid.push((loss, n_vcs));
        }
    }
    crate::par_sweep(&grid, |&(loss, n_vcs)| {
        measure(loss, n_vcs, (256 / n_vcs).max(12))
    })
}

/// Render the R-R1 report.
pub fn run() -> String {
    let mut t = Table::new(["cell loss", "VCs", "pool demand", "drop-tail", "EPD", "PPD"]);
    for p in sweep() {
        t.row([
            format!("{:.1}%", p.loss * 100.0),
            p.n_vcs.to_string(),
            format!("{:.1}x", p.overcommit),
            fmt_bps(p.drop_tail_bps),
            fmt_bps(p.epd_bps),
            fmt_bps(p.ppd_bps),
        ]);
    }
    format!(
        "R-R1 — goodput under pool overload and cell loss, by discard policy\n\
         OC-12, {FRAME_LEN}-octet AAL5 frames, {POOL_BUFFERS}-buffer reassembly pool,\n\
         256 frames offered per point, fault seed {SEED}.\n\n{}\n\
         Reading: once concurrent frames overcommit the pool (demand > 1x),\n\
         drop-tail goodput collapses — buffers sit pinned under frames already\n\
         doomed by a mid-frame cell drop. EPD refuses new frames while the pool\n\
         is tight and PPD reclaims a frame's chain at the first lost cell, so\n\
         both hold goodput through overload and recover it under cell loss;\n\
         with a roomy pool all three policies measure identically.",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiment's headline claim, pinned as a golden invariant:
    /// graceful degradation never loses to drop-tail anywhere on the
    /// grid, and strictly beats it wherever the pool is overcommitted.
    #[test]
    fn epd_and_ppd_dominate_drop_tail() {
        for p in sweep() {
            assert!(
                p.epd_bps >= p.drop_tail_bps,
                "EPD below drop-tail at loss={} vcs={}: {} vs {}",
                p.loss,
                p.n_vcs,
                p.epd_bps,
                p.drop_tail_bps
            );
            assert!(
                p.ppd_bps >= p.drop_tail_bps,
                "PPD below drop-tail at loss={} vcs={}: {} vs {}",
                p.loss,
                p.n_vcs,
                p.ppd_bps,
                p.drop_tail_bps
            );
            if p.overloaded() {
                assert!(
                    p.epd_bps > p.drop_tail_bps,
                    "EPD not strictly better in overload at loss={} vcs={}",
                    p.loss,
                    p.n_vcs
                );
                assert!(
                    p.ppd_bps > p.drop_tail_bps,
                    "PPD not strictly better in overload at loss={} vcs={}",
                    p.loss,
                    p.n_vcs
                );
            }
        }
    }

    #[test]
    fn rendered_report_is_deterministic() {
        assert_eq!(run(), run());
    }
}
