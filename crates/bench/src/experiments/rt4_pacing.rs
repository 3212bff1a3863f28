//! R-T4: per-VC pacing — cell-level jitter of a CBR stream multiplexed
//! with bulk traffic, with and without the transmit pacer.

use crate::table::Table;
use hni_atm::VcId;
use hni_core::txsim::{run_tx, TxConfig, TxPacket};
use hni_sim::{Duration, Time};
use hni_sonet::LineRate;

/// The CBR connection under observation.
pub fn cbr_vc() -> VcId {
    VcId::new(0, 200)
}

/// Jitter measurement for one configuration.
pub struct Point {
    /// Whether pacing was enabled.
    pub pacing: bool,
    /// Mean inter-departure of the CBR VC's cells, µs.
    pub mean_us: f64,
    /// Standard deviation (the jitter), µs.
    pub sd_us: f64,
    /// Worst-case gap, µs.
    pub max_us: f64,
}

/// A CBR stream (64 kb/s-voice-like: tiny frames at fixed intervals...
/// scaled up to something measurable: 480-octet frames every 250 µs ≈
/// 15.4 Mb/s) competing with greedy 64 kB bulk transfers on other VCs.
pub fn workload() -> Vec<TxPacket> {
    let mut pkts = Vec::new();
    // The CBR stream: 40 frames, 480 octets, every 250 µs, paced to its
    // own rate (11 cells per frame / 250 µs → 44k cells/s).
    for i in 0..40u64 {
        pkts.push(TxPacket {
            vc: cbr_vc(),
            len: 480,
            arrival: Time::ZERO + Duration::from_us(250) * i,
            pcr: Some(60_000.0),
        });
    }
    // Bulk competitors.
    for v in 0..3u16 {
        for _ in 0..2 {
            pkts.push(TxPacket {
                vc: VcId::new(0, 300 + v),
                len: 65_000,
                arrival: Time::ZERO,
                pcr: None,
            });
        }
    }
    pkts
}

/// Measure with or without pacing.
pub fn measure(pacing: bool) -> Point {
    let mut cfg = TxConfig::paper(LineRate::Oc12);
    cfg.pacing = pacing;
    let packets = workload();
    let r = run_tx(&cfg, &packets);
    let s = r.interdeparture_us(&packets, cbr_vc());
    Point {
        pacing,
        mean_us: s.mean(),
        sd_us: s.std_dev(),
        max_us: s.max(),
    }
}

/// Render the table.
pub fn run() -> String {
    let mut t = Table::new(["pacing", "mean gap (µs)", "jitter sd (µs)", "max gap (µs)"]);
    // The two configurations are independent transmit runs — sweep them
    // in parallel.
    for p in crate::par_sweep(&[false, true], |&pacing| measure(pacing)) {
        t.row([
            if p.pacing { "on" } else { "off" }.to_string(),
            format!("{:.2}", p.mean_us),
            format!("{:.2}", p.sd_us),
            format!("{:.2}", p.max_us),
        ]);
    }
    format!(
        "R-T4 — Per-VC pacing: CBR cell jitter under bulk competition\n\
         (480-octet CBR frames every 250 µs, three greedy bulk VCs, OC-12)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_reduces_jitter() {
        let unpaced = measure(false);
        let paced = measure(true);
        assert!(
            paced.sd_us < unpaced.sd_us,
            "paced sd {} vs unpaced sd {}",
            paced.sd_us,
            unpaced.sd_us
        );
    }

    #[test]
    fn paced_stream_spacing_matches_pcr() {
        let paced = measure(true);
        // 60k cells/s → 16.7 µs between cells; the inter-frame gaps pull
        // the mean up, so it must be ≥ the PCR spacing.
        assert!(paced.mean_us >= 16.0, "mean {}", paced.mean_us);
    }
}
