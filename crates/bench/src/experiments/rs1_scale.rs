//! R-S1: connection-state scale — a million terminated VCs through the
//! sharded [`VcTable`], under a Zipf arrival mix.
//!
//! The paper's CAM answers the per-cell "which connection?" question for
//! a handful of VCs; the ROADMAP's north star is millions. This
//! experiment opens 1k → 1M concurrent VCs, churns them with a
//! Zipf-weighted close/reopen mix (few hot connections, a long cold
//! tail — the distribution real VC populations have), then measures:
//!
//! * **probes per lookup** — the deterministic proxy for lookup cost.
//!   Open addressing at a bounded load factor keeps the mean probe
//!   chain flat as the population grows three orders of magnitude; a
//!   structure whose cost grew with population would show it here.
//! * **bytes per idle VC** — total resident table memory divided by the
//!   open-connection count. The slab arena and the dense tag/key/id
//!   index arrays bound this, where per-node heap structures balloon.
//! * **reassembly goodput vs VC count** — AAL5 frames on Zipf-chosen
//!   VCs, interleaved across distinct connections one cell per OC-12
//!   slot. Goodput is a *simulated* quantity and must not sag as the VC
//!   population grows: any table defect at scale (key aliasing, stale
//!   state after recycle, probe-chain corruption) merges or corrupts
//!   frames, fails their CRC, and collapses it.
//!
//! Wall-clock lookup cost is deliberately **not** reported here — the
//! report must be byte-identical across runs and `HNI_JOBS` worker
//! counts. The wall-clock benchmark (`perfbench`, benchmark/README.md)
//! times the same table behind the NIC's CAM as `core.cam_lookup_ns` on
//! its `nic-mux` workload: 60,000 open VCs on the real byte path.
//!
//! Every point reseeds its own RNG from [`SEED`] and the point's VC
//! count, so the parallel sweep schedule cannot leak into results.

use crate::table::{fmt_bps, Table};
use hni_aal::aal5::{segment, Aal5Reassembler};
use hni_atm::{VcId, VcTable};
use hni_sim::{Duration, Rng, Time, Zipf};
use hni_sonet::LineRate;

/// Base seed; each point derives `SEED ^ n_vcs`.
pub const SEED: u64 = 19911;

/// The VC-count sweep: three orders of magnitude up to one million
/// concurrent connections.
pub const VC_COUNTS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Zipf exponent for the arrival mix (s > 1: a genuinely heavy head).
pub const ZIPF_S: f64 = 1.1;

/// AAL5 SDU octets per frame (88 + 8-octet trailer = exactly 2 cells).
pub const FRAME_LEN: usize = 88;

/// Frames of reassembly work offered per point.
pub const FRAMES_PER_POINT: usize = 2_000;

/// Frames kept in flight concurrently (each on a distinct VC — AAL5
/// cannot interleave two frames on one VC by construction).
const ACTIVE_FRAMES: usize = 32;

/// Zipf-weighted close/reopen operations per point (the churn that
/// exercises O(1) recycling and the generation counters).
const CHURN_OPS: usize = 10_000;

/// Uniform lookups per point for the probe-cost measurement.
const LOOKUPS_PER_POINT: usize = 100_000;

/// One point of the scale sweep.
pub struct Point {
    /// Concurrent open VCs.
    pub n_vcs: usize,
    /// Resident table bytes per idle (open, no frame in progress) VC.
    pub bytes_per_idle_vc: f64,
    /// Mean probe steps per lookup under the Zipf mix (1.0 = every
    /// lookup lands on its home slot).
    pub probes_per_lookup: f64,
    /// Arena entries recycled during the churn phase.
    pub recycled: u64,
    /// Simulated reassembly goodput, bits/s.
    pub goodput_bps: f64,
    /// Frames delivered intact.
    pub delivered: u64,
    /// Frames offered.
    pub offered: u64,
}

/// Deterministic VC identity for rank `i`: user-range VCIs (≥ 32),
/// rolling into the next VPI every 65504 ranks so a million ranks stay
/// inside the 8-bit UNI VPI space.
fn vc_for(i: usize) -> VcId {
    VcId::new((i / 65_504) as u16, 32 + (i % 65_504) as u16)
}

fn key_for(i: usize) -> u64 {
    vc_for(i).cam_key() as u64
}

/// Measure one point: open `n` VCs, churn them, count probe cost, then
/// drive the reassembly workload.
pub fn measure(n: usize) -> Point {
    let mut rng = Rng::new(SEED ^ n as u64);
    let zipf = Zipf::new(n, ZIPF_S);

    // Open n concurrent connections.
    let mut conns: VcTable<u32> = VcTable::new();
    for i in 0..n {
        conns.insert(key_for(i), i as u32);
    }
    assert_eq!(conns.len(), n, "every VC must open");
    let bytes_per_idle_vc = conns.memory_bytes() as f64 / n as f64;

    // Zipf-weighted close/reopen churn: hot connections cycle through
    // the free list, exercising recycling and generation bumps.
    for _ in 0..CHURN_OPS {
        let rank = zipf.sample(&mut rng);
        let key = key_for(rank);
        if conns.remove(key).is_some() {
            conns.insert(key, rank as u32);
        }
    }
    assert_eq!(conns.len(), n, "churn must conserve the population");

    // Probe-cost phase: uniform lookups across the whole population,
    // counted via table stats. (Uniform, not Zipf: a Zipf-weighted mean
    // is just the chain length of a few hot keys — a high-variance
    // sample of table quality, not a measure of it. The Zipf mix drives
    // the churn above and the frame arrivals below.)
    let before = conns.stats();
    for _ in 0..LOOKUPS_PER_POINT {
        let rank = rng.below(n as u64) as usize;
        let got = conns.get_by_key(key_for(rank));
        assert_eq!(got, Some(&(rank as u32)), "open VC must resolve");
    }
    let after = conns.stats();
    let probes_per_lookup =
        (after.probes - before.probes) as f64 / (after.lookups - before.lookups) as f64;

    // Reassembly phase: frames on Zipf-chosen VCs, ACTIVE_FRAMES
    // concurrent streams on distinct VCs, one cell per OC-12 slot.
    let slot = LineRate::Oc12.cell_slot_time();
    let mut reasm = Aal5Reassembler::new(FRAME_LEN, Duration::from_ms(100));
    let mut now = Time::ZERO;
    let mut active: Vec<(Vec<hni_atm::Cell>, usize, usize)> = Vec::new(); // (cells, next, rank)
    let mut launched = 0usize;
    let mut delivered = 0u64;
    let mut failed = 0u64;
    let mut payload_octets = 0u64;
    while delivered + failed < FRAMES_PER_POINT as u64 {
        while active.len() < ACTIVE_FRAMES && launched < FRAMES_PER_POINT {
            // Pick a VC with no frame in flight (AAL5 frames on one VC
            // are sequential on a real link).
            let rank = loop {
                let r = zipf.sample(&mut rng);
                if !active.iter().any(|(_, _, rank)| *rank == r) {
                    break r;
                }
            };
            let fill = (rank % 251) as u8;
            let cells = segment(vc_for(rank), &[fill; FRAME_LEN], 0);
            active.push((cells, 0, rank));
            launched += 1;
        }
        // One cell from each in-flight frame, round-robin.
        let mut i = 0;
        while i < active.len() {
            let (cells, next, rank) = &mut active[i];
            let outcome = reasm.push(&cells[*next], now);
            now += slot;
            *next += 1;
            match outcome {
                Some(Ok(sdu)) => {
                    assert_eq!(sdu.vc, vc_for(*rank), "frame must come back on its VC");
                    assert_eq!(sdu.data.len(), FRAME_LEN);
                    payload_octets += sdu.data.len() as u64;
                    delivered += 1;
                    active.swap_remove(i);
                }
                Some(Err(_)) => {
                    failed += 1;
                    active.swap_remove(i);
                }
                None => i += 1,
            }
        }
    }
    let goodput_bps = payload_octets as f64 * 8.0 / now.as_s_f64();

    Point {
        n_vcs: n,
        bytes_per_idle_vc,
        probes_per_lookup,
        recycled: conns.stats().recycled,
        goodput_bps,
        delivered,
        offered: FRAMES_PER_POINT as u64,
    }
}

/// The full sweep. Points run in parallel under the `HNI_JOBS` worker
/// pool; each reseeds from its grid coordinate, so the report is
/// byte-identical at any worker count.
pub fn sweep() -> Vec<Point> {
    crate::par_sweep(&VC_COUNTS, |&n| measure(n))
}

/// The golden shape invariants, as (name, pass) pairs:
/// lookup cost flat-ish across three orders of magnitude, memory per
/// idle VC bounded and flat-ish, goodput intact with every frame
/// delivered.
pub fn golden_checks(points: &[Point]) -> Vec<(&'static str, bool)> {
    let probes_max = points
        .iter()
        .map(|p| p.probes_per_lookup)
        .fold(0.0, f64::max);
    let probes_min = points
        .iter()
        .map(|p| p.probes_per_lookup)
        .fold(f64::INFINITY, f64::min);
    let mem_max = points
        .iter()
        .map(|p| p.bytes_per_idle_vc)
        .fold(0.0, f64::max);
    let mem_min = points
        .iter()
        .map(|p| p.bytes_per_idle_vc)
        .fold(f64::INFINITY, f64::min);
    let good_max = points.iter().map(|p| p.goodput_bps).fold(0.0, f64::max);
    let good_min = points
        .iter()
        .map(|p| p.goodput_bps)
        .fold(f64::INFINITY, f64::min);
    vec![
        (
            "lookup cost flat-ish (max <= 2.5x min, mean probes <= 6)",
            probes_max <= 2.5 * probes_min && probes_max <= 6.0,
        ),
        (
            "memory bounded (<= 128 B/idle VC) and flat-ish (max <= 2.5x min)",
            mem_max <= 128.0 && mem_max <= 2.5 * mem_min,
        ),
        (
            "goodput does not collapse (min >= 0.9x max)",
            good_min >= 0.9 * good_max,
        ),
        (
            "every offered frame delivered at every scale",
            points.iter().all(|p| p.delivered == p.offered),
        ),
        (
            "churn recycles arena entries at every scale",
            points.iter().all(|p| p.recycled > 0),
        ),
    ]
}

/// Render the R-S1 report.
pub fn run() -> String {
    let points = sweep();
    let mut t = Table::new([
        "VCs open",
        "B/idle VC",
        "probes/lookup",
        "recycled",
        "goodput",
        "frames",
    ]);
    for p in &points {
        t.row([
            p.n_vcs.to_string(),
            format!("{:.1}", p.bytes_per_idle_vc),
            format!("{:.3}", p.probes_per_lookup),
            p.recycled.to_string(),
            fmt_bps(p.goodput_bps),
            format!("{}/{}", p.delivered, p.offered),
        ]);
    }
    let checks = golden_checks(&points);
    let verdict = if checks.iter().all(|(_, ok)| *ok) {
        "PASS"
    } else {
        "FAIL"
    };
    let check_lines: String = checks
        .iter()
        .map(|(name, ok)| format!("  [{}] {name}\n", if *ok { "ok" } else { "FAIL" }))
        .collect();
    format!(
        "R-S1 — connection-state scale: 1k → 1M concurrent VCs under a Zipf mix\n\
         Sharded open-addressing VcTable, Zipf(s={ZIPF_S}) arrival mix, seed {SEED};\n\
         {CHURN_OPS} Zipf close/reopen churn ops, {LOOKUPS_PER_POINT} uniform lookups per point;\n\
         {FRAMES_PER_POINT} AAL5 frames of {FRAME_LEN} octets reassembled per point,\n\
         {ACTIVE_FRAMES} interleaved streams, one cell per OC-12 slot.\n\n{}\n\
         Probes/lookup is the deterministic lookup-cost proxy (1.0 = home-slot\n\
         direct); wall-clock ns/cell for the same table is perfbench's\n\
         `core.cam_lookup_ns` on `nic-mux` (benchmark/README.md). Goodput is\n\
         simulated and collapses only if the table corrupts or aliases per-VC\n\
         frame state.\n\n\
         {check_lines}golden verdict: {verdict}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_shape_holds() {
        let points = sweep();
        assert_eq!(points.len(), VC_COUNTS.len());
        for (name, ok) in golden_checks(&points) {
            assert!(ok, "golden check failed: {name}");
        }
    }

    #[test]
    fn million_vcs_open_and_deliver() {
        let p = measure(1_000_000);
        assert_eq!(p.n_vcs, 1_000_000);
        assert_eq!(p.delivered, p.offered);
        assert!(p.recycled > 0, "Zipf churn must recycle entries");
    }

    #[test]
    fn rendered_report_is_deterministic() {
        assert_eq!(run(), run());
    }
}
