//! R-F1: transmit goodput versus packet size — simulation against the
//! analytic bounds, per partition, at both line rates.

use crate::table::{fmt_bps, Table};
use crate::Run;
use hni_analysis::throughput::{predict_tx, predict_tx_with_bubble};
use hni_atm::VcId;
use hni_core::engine::HwPartition;
use hni_core::txsim::{greedy_workload, run_tx, run_tx_full, TxConfig};
use hni_sonet::LineRate;
use hni_telemetry::{Profiler, Tracer};

/// Packet sizes swept (octets).
pub const SIZES: [usize; 7] = [64, 256, 1024, 4096, 9180, 32768, 65000];

/// One measured/predicted point.
pub struct Point {
    /// Line rate.
    pub rate: LineRate,
    /// Partition name.
    pub partition: &'static str,
    /// Packet size.
    pub len: usize,
    /// Simulated goodput.
    pub sim_bps: f64,
    /// Analytic goodput (plain resource bounds).
    pub analytic_bps: f64,
    /// Analytic goodput including the per-packet pipeline bubble.
    pub bubble_bps: f64,
    /// Analytic bottleneck.
    pub bottleneck: &'static str,
}

/// Run the sweep (`packets` controls run length; 20 is plenty for the
/// report, benches use fewer). Points run in parallel under the
/// `HNI_JOBS` worker pool; the output order is the serial grid order.
pub fn sweep(packets: usize) -> Vec<Point> {
    sweep_with_jobs(packets, crate::jobs_from_env())
}

/// [`sweep`] with an explicit worker count — `tests/perf_golden.rs`
/// diffs the serial (`jobs = 1`) and parallel grids against each other.
pub fn sweep_with_jobs(packets: usize, jobs: usize) -> Vec<Point> {
    let mut grid = Vec::new();
    for rate in [LineRate::Oc3, LineRate::Oc12] {
        for partition in [
            HwPartition::all_software(),
            HwPartition::paper_split(),
            HwPartition::full_hardware(),
        ] {
            for &len in &SIZES {
                grid.push((rate, partition, len));
            }
        }
    }
    crate::par_sweep_with_jobs(jobs, &grid, |&(rate, partition, len)| {
        let mut cfg = TxConfig::paper(rate);
        cfg.partition = partition;
        let r = run_tx(&cfg, &greedy_workload(packets, len, VcId::new(0, 32)));
        let p = predict_tx(len, &partition, cfg.mips, &cfg.bus, rate, cfg.aal);
        let bubble = predict_tx_with_bubble(len, &partition, cfg.mips, &cfg.bus, rate, cfg.aal);
        Point {
            rate,
            partition: partition.name,
            len,
            sim_bps: r.goodput_bps,
            analytic_bps: p.achievable_bps,
            bubble_bps: bubble,
            bottleneck: p.bottleneck,
        }
    })
}

/// The canonical steady-state run (paper split, OC-12, 20 × 9180-octet
/// packets) with the caller's probes attached.
pub fn canonical_run(tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> Run {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let packets = greedy_workload(20, 9180, VcId::new(0, 32));
    Run::Tx(run_tx_full(&cfg, &packets, tracer, profiler))
}

/// Render the figure as a table.
pub fn run() -> String {
    let mut t = Table::new([
        "rate",
        "partition",
        "pkt octets",
        "sim goodput",
        "plain bound",
        "bubble model",
        "bottleneck",
    ]);
    for p in sweep(20) {
        t.row([
            format!("{:?}", p.rate),
            p.partition.to_string(),
            p.len.to_string(),
            fmt_bps(p.sim_bps),
            fmt_bps(p.analytic_bps),
            fmt_bps(p.bubble_bps),
            p.bottleneck.to_string(),
        ]);
    }
    format!(
        "R-F1 — Transmit goodput vs packet size (simulation vs analysis)\n\
         ('plain bound' = perfect pipelining; 'bubble model' adds the\n\
          per-packet engine cycle — it tracks the simulation within ~12%)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_model_tracks_sim_everywhere() {
        for p in sweep(12) {
            let ratio = p.sim_bps / p.bubble_bps;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "{:?}/{}/{}: sim {} vs bubble {}",
                p.rate,
                p.partition,
                p.len,
                p.sim_bps,
                p.bubble_bps
            );
        }
    }

    #[test]
    fn sim_and_analysis_agree_within_queueing_slack() {
        for p in sweep(12) {
            if p.analytic_bps > 0.0 && p.sim_bps > 0.0 {
                let ratio = p.sim_bps / p.analytic_bps;
                // The DES is below the closed form for mid-size packets:
                // the per-packet state machine cannot overlap packet N+1's
                // setup with packet N's tail (a real pipeline bubble the
                // analytic steady-state bound ignores — see
                // EXPERIMENTS.md R-F1). Never above by more than rounding.
                assert!(
                    (0.50..=1.05).contains(&ratio),
                    "{:?}/{}/{}: sim {} vs analytic {}",
                    p.rate,
                    p.partition,
                    p.len,
                    p.sim_bps,
                    p.analytic_bps
                );
            }
        }
    }

    #[test]
    fn large_packets_agree_tightly_with_analysis() {
        // Per-packet bubbles amortize away for large packets: within 10%.
        for p in sweep(12) {
            if p.len >= 32768 {
                let ratio = p.sim_bps / p.analytic_bps;
                assert!(
                    (0.90..=1.05).contains(&ratio),
                    "{:?}/{}/{}: ratio {ratio}",
                    p.rate,
                    p.partition,
                    p.len
                );
            }
        }
    }

    #[test]
    fn paper_split_saturates_oc12_for_large_packets() {
        let pts = sweep(12);
        let big = pts
            .iter()
            .find(|p| p.rate == LineRate::Oc12 && p.partition == "paper-split" && p.len == 65000)
            .unwrap();
        assert_eq!(big.bottleneck, "link");
        assert!(big.sim_bps > 0.85 * LineRate::Oc12.payload_bps());
    }
}
