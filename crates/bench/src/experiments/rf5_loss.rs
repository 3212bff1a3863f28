//! R-F5: goodput under cell loss — analytic curves validated by the
//! byte-exact functional path through the NIC's faulted ingress.

use crate::table::{fmt_bps, Table};
use hni_aal::AalType;
use hni_analysis::loss::{default_loss_grid, goodput_under_loss};
use hni_atm::VcId;
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::{FaultInjector, FaultPlan, Time};
use hni_sonet::LineRate;

/// Functional validation of the analytic survival curve: `n_frames`
/// frames of `len` octets are segmented to real cells, each cell is
/// offered to NIC A's faulted ingress ([`Nic::inject_cell_faulted`]),
/// which drops it per an i.i.d. loss plan (the loss process the
/// analytic model assumes — switch-buffer discard, not line damage),
/// and the survivors travel NIC A → SONET frames → NIC B through the
/// byte-exact TC/reassembly path.
///
/// Returns the fraction of frames delivered intact.
pub fn functional_survival(aal: AalType, len: usize, loss: f64, n_frames: usize, seed: u64) -> f64 {
    let mut cfg = NicConfig::paper(LineRate::Oc3);
    cfg.aal = aal;
    let mut a = Nic::new(cfg.clone());
    let mut b = Nic::new(cfg);
    let vc = VcId::new(0, 99);
    a.open_vc(vc).unwrap();
    b.open_vc(vc).unwrap();

    // The loss process is the degenerate one-state fault plan — i.i.d.
    // loss and nothing else — which is exactly what the analytic
    // survival model assumes; the full Gilbert–Elliott machinery sits
    // idle here.
    let mut inj = FaultInjector::seeded(FaultPlan::loss(loss), seed);
    let mut seg34 = hni_aal::aal34::Aal34Segmenter::new();

    // Warm both TC paths up via direct frames.
    for _ in 0..12 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
    }

    let mut delivered = 0usize;
    for i in 0..n_frames {
        let payload: Vec<u8> = (0..len).map(|j| ((i * 31 + j) % 256) as u8).collect();
        // Segment on a scratch NIC path: reuse `a`, but intercept at the
        // cell level by segmenting directly.
        let cells = match aal {
            AalType::Aal5 => hni_aal::aal5::segment(vc, &payload, 0),
            // One segmenter across the run keeps SN streams continuous,
            // as on a real VC.
            AalType::Aal34 => seg34.segment(vc, 0, &payload),
        };
        // Survivors of the faulted ingress go through b's
        // TC/reassembly via a private framing hop on `a`.
        for cell in &cells {
            a.inject_cell_faulted(cell, &mut inj);
        }
        // Flush enough frames to move the surviving cells.
        let frames_needed = (cells.len() * 53) / LineRate::Oc3.payload_octets_per_frame() + 2;
        for _ in 0..frames_needed {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
        }
        while let Some(ev) = b.poll() {
            if let NicEvent::PacketReceived { data, .. } = ev {
                if data == payload {
                    delivered += 1;
                }
            }
        }
    }
    delivered as f64 / n_frames as f64
}

/// Render the figure.
pub fn run() -> String {
    let mut t = Table::new([
        "cell loss p",
        "frame octets",
        "AAL",
        "survival (analytic)",
        "goodput (analytic)",
    ]);
    let mut grid = Vec::new();
    for &loss in &default_loss_grid() {
        for &len in &[256usize, 9180, 65000] {
            for aal in [AalType::Aal5, AalType::Aal34] {
                grid.push((loss, len, aal));
            }
        }
    }
    // Analytic points are pure functions of their coordinates — sweep
    // them in parallel.
    let points = crate::par_sweep(&grid, |&(loss, len, aal)| {
        goodput_under_loss(LineRate::Oc12, aal, len, loss)
    });
    for (&(loss, len, aal), p) in grid.iter().zip(points) {
        t.row([
            format!("{loss:.0e}"),
            len.to_string(),
            aal.to_string(),
            format!("{:.4}", p.frame_survival),
            fmt_bps(p.goodput_bps),
        ]);
    }
    // Functional spot-check at a heavy loss rate (kept small for speed).
    let p_model = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 9180, 2e-3).frame_survival;
    let p_meas = functional_survival(AalType::Aal5, 9180, 2e-3, 60, 42);
    format!(
        "R-F5 — Goodput under random cell loss (no retransmission)\n\n{}\n\
         Functional spot-check (AAL5, 9180 octets, p=2e-3): analytic \
         survival {:.3}, measured through the byte-exact path {:.3}\n",
        t.render(),
        p_model,
        p_meas
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_survival_matches_model_aal5() {
        let loss = 5e-3;
        let len = 4096;
        let model = goodput_under_loss(LineRate::Oc12, AalType::Aal5, len, loss).frame_survival;
        let measured = functional_survival(AalType::Aal5, len, loss, 150, 7);
        assert!(
            (measured - model).abs() < 0.12,
            "measured {measured} vs model {model}"
        );
    }

    #[test]
    fn zero_loss_delivers_everything() {
        let measured = functional_survival(AalType::Aal5, 2048, 0.0, 20, 1);
        assert_eq!(measured, 1.0);
    }

    #[test]
    fn aal34_survives_like_model_under_loss() {
        let loss = 5e-3;
        let len = 4096;
        let model = goodput_under_loss(LineRate::Oc12, AalType::Aal34, len, loss).frame_survival;
        let measured = functional_survival(AalType::Aal34, len, loss, 150, 11);
        assert!(
            (measured - model).abs() < 0.12,
            "measured {measured} vs model {model}"
        );
    }
}
