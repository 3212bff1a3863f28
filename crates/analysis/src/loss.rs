//! R-F5: goodput under random cell loss — AAL5 vs AAL3/4, and the
//! frame-size crossover.
//!
//! Without link-level retransmission (the ATM position: recovery belongs
//! to the endpoints), a frame survives only if **every** cell survives:
//! `P = (1-p)^cells`. Two consequences the figure exhibits:
//!
//! * AAL5 beats AAL3/4 at any loss rate: fewer cells per frame (48 vs 44
//!   payload octets per cell) helps survival *and* efficiency. AAL3/4's
//!   per-cell CRC-10 buys earlier detection (buffer hygiene), not
//!   goodput.
//! * There is a frame-size crossover: big frames amortize per-frame
//!   overhead but die more often. As p grows, the goodput-optimal frame
//!   shrinks — at p = 1e-3, a 9180-octet frame beats a 65535-octet one.

use hni_aal::AalType;
use hni_sonet::LineRate;

/// One point of the loss figure.
#[derive(Clone, Copy, Debug)]
pub struct LossPoint {
    /// Cell loss probability.
    pub loss: f64,
    /// Frame size, octets.
    pub len: usize,
    /// Adaptation layer.
    pub aal: AalType,
    /// Probability a frame survives.
    pub frame_survival: f64,
    /// Expected goodput, bits/s, at full line load.
    pub goodput_bps: f64,
}

/// Goodput at cell-loss probability `loss` for `len`-octet frames on
/// `aal` over `rate`, offered at full payload load.
pub fn goodput_under_loss(rate: LineRate, aal: AalType, len: usize, loss: f64) -> LossPoint {
    assert!((0.0..=1.0).contains(&loss));
    let cells = aal.cells_for_sdu(len);
    let survival = (1.0 - loss).powi(cells as i32);
    // Offered cells occupy payload slots; goodput counts only SDU bits
    // of surviving frames.
    let cell_payload_fraction = 48.0 / 53.0;
    let goodput = rate.payload_bps() * cell_payload_fraction * aal.efficiency(len) * survival;
    LossPoint {
        loss,
        len,
        aal,
        frame_survival: survival,
        goodput_bps: goodput,
    }
}

/// The loss-rate sweep used by the report.
pub fn default_loss_grid() -> Vec<f64> {
    vec![0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_is_efficiency_ceiling() {
        let p = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 9180, 0.0);
        assert_eq!(p.frame_survival, 1.0);
        let ceiling = LineRate::Oc12.payload_bps() * (48.0 / 53.0) * AalType::Aal5.efficiency(9180);
        assert!((p.goodput_bps - ceiling).abs() < 1.0);
    }

    #[test]
    fn aal5_beats_aal34_at_every_loss_rate() {
        for &loss in &default_loss_grid() {
            let a5 = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 9180, loss);
            let a34 = goodput_under_loss(LineRate::Oc12, AalType::Aal34, 9180, loss);
            assert!(
                a5.goodput_bps > a34.goodput_bps,
                "loss {loss}: {} vs {}",
                a5.goodput_bps,
                a34.goodput_bps
            );
        }
    }

    #[test]
    fn survival_collapses_for_large_frames() {
        // 65535 octets = 1366 cells: at p = 1e-3, survival ≈ e^-1.37 ≈ 0.25.
        let p = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 65535, 1e-3);
        assert!(
            p.frame_survival > 0.2 && p.frame_survival < 0.3,
            "{}",
            p.frame_survival
        );
    }

    #[test]
    fn frame_size_crossover_under_loss() {
        // At negligible loss, 65535 beats 9180 (less trailer overhead...
        // marginally); at 1e-3 the ordering flips decisively.
        let big_clean = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 65535, 1e-7);
        let mid_clean = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 9180, 1e-7);
        assert!(big_clean.goodput_bps > mid_clean.goodput_bps * 0.999);
        let big_lossy = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 65535, 1e-3);
        let mid_lossy = goodput_under_loss(LineRate::Oc12, AalType::Aal5, 9180, 1e-3);
        assert!(
            mid_lossy.goodput_bps > 2.0 * big_lossy.goodput_bps,
            "mid {} big {}",
            mid_lossy.goodput_bps,
            big_lossy.goodput_bps
        );
    }

    #[test]
    fn goodput_monotone_decreasing_in_loss() {
        let mut prev = f64::INFINITY;
        for &loss in &default_loss_grid() {
            let p = goodput_under_loss(LineRate::Oc3, AalType::Aal5, 9180, loss);
            assert!(p.goodput_bps <= prev);
            prev = p.goodput_bps;
        }
    }
}
