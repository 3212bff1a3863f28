//! R-W1: closed-loop transport — goodput and retransmission-rate
//! surfaces vs RTT × loss, and discard-policy dominance with feedback.
//!
//! R-R1 measured the discard policies *open loop*: one pass of offered
//! frames, count what survives. Real hosts do not stop at one pass — a
//! transport above the adaptor retransmits what the pool discarded, so
//! a policy's true cost is the steady state its feedback loop settles
//! into. This experiment closes that loop with `hni-transport`
//! (sliding window, cumulative + selective acks on a reverse VC,
//! Jacobson/Karn adaptive RTO with capped exponential backoff) and
//! measures two surfaces:
//!
//! 1. **Overload leg** — the R-R1 overload scenario (9180-octet
//!    frames, 32-buffer pool, demand 1.5× and 3× the pool) rerun
//!    closed-loop for each policy, next to the open-loop numbers at
//!    the same loss point. Two opposed effects show up. Feedback
//!    *rescues* drop-tail from open-loop collapse (retransmission
//!    recovers what the pool discarded, so closed-loop drop-tail
//!    goodput is never zero), and where link loss — not the pool —
//!    gates progress, the recovery path washes the policy ranking
//!    out. But at the matched congestion point (deepest overload,
//!    zero link loss: every discard is the pool's own doing) the
//!    dominance *sharpens*: a drop-tail victim wastes pool buffers
//!    **and** a window slot until its timer fires, and that waste
//!    compounds across retransmission rounds, while an EPD-refused
//!    frame never held a buffer and a PPD-punted one returns its
//!    chain the instant an append fails. That point is the golden.
//! 2. **WAN leg** — goodput and retransmission rate across
//!    LAN/WAN/satellite delay presets × cell-loss rates, showing the
//!    adaptive RTO tracking three orders of magnitude of RTT and
//!    backoff keeping goodput nonzero (no livelock) at 10% loss on the
//!    ≥ 560 ms-RTT satellite path.
//!
//! Determinism: every point derives its config from the grid
//! coordinates and [`SEED`] alone, so the sweep is byte-identical
//! across reruns and `HNI_JOBS` worker counts.

use crate::table::{fmt_bps, fmt_pct, Table};
use crate::Run;
use hni_core::DiscardPolicy;
use hni_faults::{scenarios, DelayModel, FaultPlan};
use hni_sonet::LineRate;
use hni_telemetry::{Profiler, Tracer};
use hni_transport::{run_transport, run_transport_full, TransportConfig, TransportReport};

use super::rr1_discard;

/// Fault-plan seed — the R-R1 seed, so the open- and closed-loop
/// overload legs run paired fault processes.
pub const SEED: u64 = rr1_discard::SEED;

/// Overload leg: cell-loss rates shared with the R-R1 grid.
pub const OVERLOAD_LOSSES: [f64; 3] = [0.0, 0.001, 0.002];

/// Overload leg: concurrent VCs — R-R1's overloaded rows. The pool
/// sees one interleaving frame per VC (the window pipelines acks, not
/// receive-side concurrency), so demand is 1.5× and 3× the 32-buffer
/// pool exactly as open loop.
pub const OVERLOAD_VCS: [usize; 2] = [8, 16];

/// Overload leg: frames in flight per VC.
pub const OVERLOAD_WINDOW: usize = 2;

/// Overload leg: frames each VC must deliver.
const OVERLOAD_FRAMES_PER_VC: usize = 12;

/// WAN leg: forward/reverse cell-loss rates swept.
pub const WAN_LOSSES: [f64; 3] = [0.0, 0.01, 0.10];

/// WAN leg: delay presets swept (name, model).
pub fn wan_paths() -> [(&'static str, DelayModel); 3] {
    [
        ("lan", scenarios::lan_path()),
        ("wan", scenarios::wan_path()),
        ("satellite", scenarios::satellite_path()),
    ]
}

/// WAN leg: SDU octets per frame. Small frames (11 cells) keep per-
/// attempt survival meaningful at 10% cell loss (0.9^11 ≈ 0.31);
/// the overload leg's 9180-octet frames would survive with p ≈ 10^-9.
pub const WAN_FRAME_LEN: usize = 512;

/// One overload-leg grid point: closed-loop goodput next to the
/// open-loop R-R1 measurement at the same loss and pool demand.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadPoint {
    /// Link cell-loss probability (forward path).
    pub loss: f64,
    /// Concurrent VCs (each with [`OVERLOAD_WINDOW`] frames in flight).
    pub n_vcs: usize,
    /// Demand on the pool: in-flight frames × buffers/frame ÷ buffers.
    pub overcommit: f64,
    /// Closed-loop goodput per policy, bits/s.
    pub closed_dt_bps: f64,
    pub closed_epd_bps: f64,
    pub closed_ppd_bps: f64,
    /// Closed-loop retransmission rate per policy.
    pub retx_dt: f64,
    pub retx_epd: f64,
    pub retx_ppd: f64,
    /// Open-loop (R-R1) goodput per policy at the same loss/demand.
    pub open_dt_bps: f64,
    pub open_epd_bps: f64,
    pub open_ppd_bps: f64,
}

impl OverloadPoint {
    /// EPD's edge over drop-tail, closed loop, as a fraction of link
    /// payload capacity (capacity-normalised so open and closed runs —
    /// whose absolute goodputs differ — compare on one scale).
    pub fn closed_epd_dominance(&self) -> f64 {
        (self.closed_epd_bps - self.closed_dt_bps) / LineRate::Oc12.payload_bps()
    }

    /// PPD's edge over drop-tail, closed loop (capacity-normalised).
    pub fn closed_ppd_dominance(&self) -> f64 {
        (self.closed_ppd_bps - self.closed_dt_bps) / LineRate::Oc12.payload_bps()
    }

    /// EPD's edge over drop-tail, open loop (capacity-normalised).
    pub fn open_epd_dominance(&self) -> f64 {
        (self.open_epd_bps - self.open_dt_bps) / LineRate::Oc12.payload_bps()
    }

    /// PPD's edge over drop-tail, open loop (capacity-normalised).
    pub fn open_ppd_dominance(&self) -> f64 {
        (self.open_ppd_bps - self.open_dt_bps) / LineRate::Oc12.payload_bps()
    }

    /// Is this the matched congestion point the golden gates on —
    /// deepest overload at zero link loss, where every discard is the
    /// pool's own doing? (At lossy points the link-recovery path, not
    /// the discard policy, gates goodput, and retransmission *rescues*
    /// open-loop drop-tail's collapse — see the module docs.)
    pub fn is_congestion_point(&self) -> bool {
        self.loss == 0.0 && self.n_vcs == *OVERLOAD_VCS.iter().max().unwrap()
    }

    /// The golden predicate at the congestion point: closed-loop
    /// dominance at least as large as open loop, for EPD and for PPD,
    /// with the open-loop ranking itself preserved.
    pub fn dominance_sharpened(&self) -> bool {
        self.closed_epd_dominance() >= self.open_epd_dominance()
            && self.closed_ppd_dominance() >= self.open_ppd_dominance()
            && self.closed_epd_bps > self.closed_dt_bps
            && self.closed_ppd_bps > self.closed_dt_bps
    }
}

/// One WAN-leg grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct WanPoint {
    /// Delay-preset name ("lan" / "wan" / "satellite").
    pub path: &'static str,
    /// Worst-case path RTT (ms) under the preset.
    pub rtt_ms: f64,
    /// Cell-loss probability (both directions).
    pub loss: f64,
    /// Goodput, bits/s (EPD policy; the pool is never the constraint).
    pub goodput_bps: f64,
    /// Retransmission rate: retransmissions / attempts.
    pub retx_rate: f64,
    /// Final mean smoothed RTT across VCs, µs (0 if never sampled).
    pub srtt_us: f64,
    /// Frames the transport gave up on.
    pub abandoned: u64,
    /// Sender finished (acked or abandoned every frame) in sim budget.
    pub completed: bool,
}

fn overload_cfg(n_vcs: usize, loss: f64, policy: DiscardPolicy) -> TransportConfig {
    let mut cfg = TransportConfig::paper(LineRate::Oc12);
    cfg.n_vcs = n_vcs;
    cfg.frames_per_vc = OVERLOAD_FRAMES_PER_VC;
    cfg.frame_len = rr1_discard::FRAME_LEN;
    cfg.window = OVERLOAD_WINDOW;
    cfg.pool.total_buffers = 32;
    cfg.pool.cells_per_buffer = 32;
    cfg.policy = policy;
    cfg.fwd_plan = if loss > 0.0 {
        FaultPlan::loss(loss)
    } else {
        FaultPlan::NONE
    };
    cfg.seed = SEED;
    // Phase VC starts one solo-frame serialization time apart, so
    // admission instants sample representative occupancy — the closed-
    // loop analogue of R-R1's staggered workload.
    cfg.start_stagger = LineRate::Oc12
        .cell_slot_time()
        .times(cfg.cells_per_frame() as u64);
    // Zero-propagation path: the RTO scales to serialization time.
    cfg.with_path(DelayModel::NONE)
}

/// Measure one overload-leg point: three closed-loop runs (one per
/// policy) plus the paired open-loop R-R1 measurement.
pub fn measure_overload(loss: f64, n_vcs: usize) -> OverloadPoint {
    let buffers_per_frame = rr1_discard::FRAME_LEN.div_ceil(48 * 32);
    let threshold = 32 - buffers_per_frame;
    let run = |policy: DiscardPolicy| -> TransportReport {
        let r = run_transport(&overload_cfg(n_vcs, loss, policy));
        debug_assert!(r.ledger.reconciles(), "{:?}", r.ledger);
        r
    };
    let dt = run(DiscardPolicy::DropTail);
    let epd = run(DiscardPolicy::Epd { threshold });
    let ppd = run(DiscardPolicy::Ppd);
    // The paired open-loop measurement: R-R1's own grid point at the
    // same loss and the same number of frames competing for the pool.
    let open = rr1_discard::measure(loss, n_vcs, (256 / n_vcs).max(12));
    OverloadPoint {
        loss,
        n_vcs,
        overcommit: (n_vcs * buffers_per_frame) as f64 / 32.0,
        closed_dt_bps: dt.goodput_bps,
        closed_epd_bps: epd.goodput_bps,
        closed_ppd_bps: ppd.goodput_bps,
        retx_dt: dt.retx_rate,
        retx_epd: epd.retx_rate,
        retx_ppd: ppd.retx_rate,
        open_dt_bps: open.drop_tail_bps,
        open_epd_bps: open.epd_bps,
        open_ppd_bps: open.ppd_bps,
    }
}

fn wan_cfg(path: DelayModel, loss: f64) -> TransportConfig {
    let mut cfg = TransportConfig::paper(LineRate::Oc3);
    cfg.n_vcs = 2;
    cfg.frames_per_vc = 16;
    cfg.frame_len = WAN_FRAME_LEN;
    cfg.window = 8;
    // Roomy pool + EPD: the path, not the pool, is the constraint here.
    cfg.policy = DiscardPolicy::Epd {
        threshold: cfg.pool.total_buffers - 1,
    };
    let plan = if loss > 0.0 {
        FaultPlan::loss(loss)
    } else {
        FaultPlan::NONE
    };
    cfg.fwd_plan = plan;
    cfg.rev_plan = plan;
    cfg.seed = SEED;
    let mut cfg = cfg.with_path(path);
    // Ten satellite-RTT backoff chains fit comfortably.
    cfg.max_sim_time = hni_sim::Duration::from_s(600);
    cfg
}

/// Measure one WAN-leg point.
pub fn measure_wan(path_name: &'static str, path: DelayModel, loss: f64) -> WanPoint {
    let cfg = wan_cfg(path, loss);
    let r = run_transport(&cfg);
    debug_assert!(r.ledger.reconciles(), "{:?}", r.ledger);
    WanPoint {
        path: path_name,
        rtt_ms: path.max_delay().times(2).as_s_f64() * 1e3,
        loss,
        goodput_bps: r.goodput_bps,
        retx_rate: r.retx_rate,
        srtt_us: r.srtt_us,
        abandoned: r.abandoned_frames,
        completed: r.completed,
    }
}

/// The overload-leg sweep under the `HNI_JOBS` worker pool.
pub fn sweep_overload() -> Vec<OverloadPoint> {
    sweep_overload_with_jobs(crate::jobs_from_env())
}

/// The overload-leg sweep with an explicit worker count.
pub fn sweep_overload_with_jobs(jobs: usize) -> Vec<OverloadPoint> {
    let mut grid = Vec::new();
    for &loss in &OVERLOAD_LOSSES {
        for &n_vcs in &OVERLOAD_VCS {
            grid.push((loss, n_vcs));
        }
    }
    crate::par_sweep_with_jobs(jobs, &grid, |&(loss, n_vcs)| measure_overload(loss, n_vcs))
}

/// The WAN-leg sweep under the `HNI_JOBS` worker pool.
pub fn sweep_wan() -> Vec<WanPoint> {
    sweep_wan_with_jobs(crate::jobs_from_env())
}

/// The WAN-leg sweep with an explicit worker count.
pub fn sweep_wan_with_jobs(jobs: usize) -> Vec<WanPoint> {
    let mut grid = Vec::new();
    for (name, path) in wan_paths() {
        for &loss in &WAN_LOSSES {
            grid.push((name, path, loss));
        }
    }
    crate::par_sweep_with_jobs(jobs, &grid, |&(name, path, loss)| {
        measure_wan(name, path, loss)
    })
}

/// The canonical closed-loop run, with the caller's probes attached:
/// the WAN leg's satellite point at 1% loss — the regime where the
/// frame-latency distribution is bimodal (one RTT vs. RTO + retransmit).
pub fn canonical_run(tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> Run {
    let cfg = wan_cfg(scenarios::satellite_path(), 0.01);
    Run::Transport(run_transport_full(&cfg, tracer, profiler))
}

/// Render the R-W1 report.
pub fn run() -> String {
    let mut ot = Table::new([
        "cell loss",
        "VCs",
        "demand",
        "dt closed",
        "EPD closed",
        "PPD closed",
        "dt retx",
        "EPD retx",
        "dt open",
        "EPD open",
    ]);
    let overload = sweep_overload();
    for p in &overload {
        ot.row([
            format!("{:.1}%", p.loss * 100.0),
            p.n_vcs.to_string(),
            format!("{:.1}x", p.overcommit),
            fmt_bps(p.closed_dt_bps),
            fmt_bps(p.closed_epd_bps),
            fmt_bps(p.closed_ppd_bps),
            fmt_pct(p.retx_dt),
            fmt_pct(p.retx_epd),
            fmt_bps(p.open_dt_bps),
            fmt_bps(p.open_epd_bps),
        ]);
    }
    let mut wt = Table::new([
        "path",
        "RTT",
        "cell loss",
        "goodput",
        "retx rate",
        "srtt",
        "abandoned",
    ]);
    let wan = sweep_wan();
    for p in &wan {
        wt.row([
            p.path.to_string(),
            format!("{:.1} ms", p.rtt_ms),
            format!("{:.0}%", p.loss * 100.0),
            fmt_bps(p.goodput_bps),
            fmt_pct(p.retx_rate),
            format!("{:.1} ms", p.srtt_us / 1e3),
            p.abandoned.to_string(),
        ]);
    }
    // The golden verdict ci.sh gates on: dominance must sharpen with
    // feedback at the matched congestion point, and the satellite path
    // must keep moving at 10% loss.
    let sharpened = overload
        .iter()
        .filter(|p| p.is_congestion_point())
        .all(|p| p.dominance_sharpened())
        && overload.iter().any(|p| p.is_congestion_point());
    let sat = wan
        .iter()
        .find(|p| p.path == "satellite" && p.loss >= 0.10)
        .expect("satellite 10% point in grid");
    let no_livelock = sat.goodput_bps > 0.0 && sat.completed;
    let verdict = if sharpened && no_livelock {
        "PASS"
    } else {
        "FAIL"
    };
    format!(
        "R-W1 — closed-loop transport: policy dominance with feedback, and\n\
         goodput vs RTT x loss under adaptive retransmission\n\
         window/RTO: per-VC sliding window, cumulative + selective acks on a\n\
         reverse VC, Jacobson SRTT/RTTVAR, Karn's rule, backoff cap 2^6,\n\
         fast retransmit at 3 duplicate acks; fault seed {SEED}.\n\n\
         Overload leg — OC-12, {flen}-octet frames, 32-buffer pool, window {w}\n\
         (in-flight demand as in R-R1's 8- and 16-VC rows), open-loop R-R1\n\
         numbers at matched loss and demand alongside:\n{ot}\n\
         WAN leg — OC-3, {wflen}-octet frames over delay presets, loss on both\n\
         directions, EPD with a roomy pool (the path is the constraint):\n{wt}\n\
         Reading: feedback cuts both ways. Retransmission *rescues* drop-tail\n\
         from open-loop collapse (closed dt goodput is never the open loop's\n\
         zero), and at lossy points the link-recovery path gates goodput, so\n\
         the policy ranking washes out there. But at the matched congestion\n\
         point (3.0x demand, 0% link loss: every discard is the pool's own)\n\
         the ranking *sharpens* — drop-tail's doomed frames cost pool and\n\
         window time until a timer fires, compounding across retransmission\n\
         rounds (capacity-normalised dominance, closed >= open for EPD and\n\
         PPD). On the WAN leg the adaptive RTO tracks three decades of RTT;\n\
         at 10% cell loss on the >=560 ms satellite path, exponential backoff\n\
         keeps the loop live (goodput > 0, no livelock) while Karn's rule\n\
         keeps the estimator honest.\n\n\
         golden verdict: {verdict} (dominance sharpened: {sharpened}; \
         satellite 10% loss goodput {satbps}, completed: {satdone})",
        flen = rr1_discard::FRAME_LEN,
        w = OVERLOAD_WINDOW,
        wflen = WAN_FRAME_LEN,
        ot = ot.render(),
        wt = wt.render(),
        satbps = fmt_bps(sat.goodput_bps),
        satdone = sat.completed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole golden: at the matched congestion point — deepest
    /// overload, zero link loss, so every discard is the pool's own —
    /// closed-loop feedback must *sharpen* EPD/PPD dominance relative
    /// to the open-loop R-R1 measurement; and everywhere on the grid
    /// retransmission must rescue drop-tail from open-loop collapse.
    #[test]
    fn feedback_sharpens_policy_dominance() {
        let overload = sweep_overload();
        for p in &overload {
            assert!(p.overcommit > 1.0, "grid must stay in overload");
            // The rescue effect: open-loop drop-tail collapses under
            // overload, closed-loop drop-tail never does — the window
            // retransmits what the pool discarded.
            assert!(
                p.closed_dt_bps > 0.0,
                "closed-loop drop-tail collapsed at loss={} vcs={}",
                p.loss,
                p.n_vcs
            );
        }
        let congestion: Vec<_> = overload
            .iter()
            .filter(|p| p.is_congestion_point())
            .collect();
        assert_eq!(congestion.len(), 1, "exactly one matched congestion point");
        let p = congestion[0];
        assert!(
            p.closed_epd_dominance() >= p.open_epd_dominance(),
            "EPD dominance shrank with feedback: closed {:.4} < open {:.4}",
            p.closed_epd_dominance(),
            p.open_epd_dominance()
        );
        assert!(
            p.closed_ppd_dominance() >= p.open_ppd_dominance(),
            "PPD dominance shrank with feedback: closed {:.4} < open {:.4}",
            p.closed_ppd_dominance(),
            p.open_ppd_dominance()
        );
        assert!(p.dominance_sharpened());
        // Feedback preserves the R-R1 ranking itself, and drop-tail
        // pays for its buffer waste in recovery load.
        assert!(
            p.closed_ppd_bps > p.closed_epd_bps,
            "PPD <= EPD closed loop"
        );
        assert!(p.closed_epd_bps > p.closed_dt_bps, "EPD <= dt closed loop");
        assert!(p.retx_dt > p.retx_epd, "drop-tail must out-retransmit EPD");
        assert!(p.retx_epd > p.retx_ppd, "EPD must out-retransmit PPD");
        assert!(p.closed_dt_bps > p.open_dt_bps, "feedback must rescue dt");
    }

    /// The no-livelock golden: at 10% cell loss on the ≥560 ms-RTT
    /// satellite preset, capped backoff keeps goodput nonzero and the
    /// transfer terminates.
    #[test]
    fn satellite_backoff_never_livelocks() {
        for p in sweep_wan() {
            assert!(p.completed, "{} loss={} did not complete", p.path, p.loss);
            assert!(
                p.goodput_bps > 0.0,
                "{} loss={} moved nothing",
                p.path,
                p.loss
            );
            if p.loss == 0.0 {
                assert_eq!(p.abandoned, 0, "{}: clean path abandoned frames", p.path);
                assert_eq!(p.retx_rate, 0.0, "{}: clean path retransmitted", p.path);
            }
        }
        let wan = sweep_wan();
        let sat = wan
            .iter()
            .find(|p| p.path == "satellite" && p.loss >= 0.10)
            .unwrap();
        assert!(sat.rtt_ms >= 500.0, "satellite preset must be >=500ms RTT");
        assert!(sat.goodput_bps > 0.0);
    }

    /// The adaptive RTO must actually adapt: the smoothed RTT tracks the
    /// path across three orders of magnitude.
    #[test]
    fn srtt_tracks_the_path() {
        let wan = sweep_wan();
        let at = |path: &str| {
            wan.iter()
                .find(|p| p.path == path && p.loss == 0.0)
                .unwrap()
                .srtt_us
        };
        let (lan, wide, sat) = (at("lan"), at("wan"), at("satellite"));
        assert!(lan > 0.0 && wide > 0.0 && sat > 0.0, "{lan} {wide} {sat}");
        assert!(lan < wide && wide < sat, "{lan} !< {wide} !< {sat}");
        assert!(sat >= 560_000.0, "satellite srtt below the physics: {sat}");
    }

    #[test]
    fn rendered_report_is_deterministic_and_passes() {
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("golden verdict: PASS"), "{a}");
    }
}
