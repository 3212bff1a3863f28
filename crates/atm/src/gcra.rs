//! The Generic Cell Rate Algorithm (ITU-T I.371 / ATM Forum UNI 3.1),
//! virtual-scheduling formulation.
//!
//! GCRA(T, τ) decides whether each cell of a connection *conforms* to a
//! traffic contract with cell inter-arrival increment `T` (one cell per T
//! = the sustained rate) and tolerance `τ`. It is used here in two roles:
//!
//! * **Policing** (UPC) — a network element marks or drops
//!   non-conforming cells.
//! * **Shaping / pacing** — the transmit pipeline of the host interface
//!   asks "when is the *earliest* conforming departure time for the next
//!   cell of this VC?" and schedules the cell then. Pacing cells of one
//!   packet apart from each other — rather than blasting them back to
//!   back — was a key host-interface design decision of the era: it keeps
//!   a single VC from monopolising switch buffers and reduces loss.
//!
//! The virtual-scheduling form keeps one state variable, the theoretical
//! arrival time **TAT**.

use hni_sim::{Duration, Time};

/// GCRA(T, τ) in virtual-scheduling form.
///
/// ```
/// use hni_atm::Gcra;
/// use hni_sim::{Duration, Time};
///
/// // Police one cell per 100 ns with no tolerance.
/// let mut policer = Gcra::new(Duration::from_ns(100), Duration::ZERO);
/// assert!(policer.conforms(Time::from_ns(0)));
/// assert!(!policer.conforms(Time::from_ns(50)));  // 50 ns early
/// assert!(policer.conforms(Time::from_ns(100)));
///
/// // Shape: ask when the next cell may leave, then commit.
/// let mut shaper = Gcra::new(Duration::from_ns(100), Duration::ZERO);
/// let t0 = shaper.earliest_conforming(Time::ZERO);
/// shaper.stamp(t0);
/// let t1 = shaper.earliest_conforming(t0);
/// assert_eq!(t1 - t0, Duration::from_ns(100));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Gcra {
    /// Increment: ideal inter-cell spacing (1 / sustained cell rate).
    t: Duration,
    /// Tolerance: how early a cell may arrive relative to its TAT.
    tau: Duration,
    /// Theoretical arrival time of the next cell.
    tat: Time,
}

impl Gcra {
    /// New GCRA with increment `t` and tolerance `tau`, starting idle.
    pub fn new(t: Duration, tau: Duration) -> Self {
        assert!(t > Duration::ZERO, "increment must be positive");
        Gcra {
            t,
            tau,
            tat: Time::ZERO,
        }
    }

    /// Build from a cell rate (cells/second) and a permitted burst of
    /// `cdvt_cells` back-to-back cells at line rate (tolerance expressed
    /// in cell increments).
    pub fn from_rate(cells_per_second: f64, tolerance_cells: f64) -> Self {
        assert!(cells_per_second > 0.0);
        let t = Duration::from_s_f64(1.0 / cells_per_second);
        let tau = Duration::from_s_f64(tolerance_cells / cells_per_second);
        Gcra::new(t, tau)
    }

    /// The increment T.
    pub fn increment(&self) -> Duration {
        self.t
    }

    /// Police a cell arriving at `now`: returns `true` (and advances
    /// state) if it conforms, `false` (state unchanged) if not.
    pub fn conforms(&mut self, now: Time) -> bool {
        // Non-conforming iff now < TAT − τ.
        if self.tat > now + self.tau {
            return false;
        }
        self.tat = self.tat.max(now) + self.t;
        true
    }

    /// Shaping query: the earliest time ≥ `now` at which a cell may be
    /// sent and conform. Does not change state.
    pub fn earliest_conforming(&self, now: Time) -> Time {
        let bound = Time::from_ps(self.tat.as_ps().saturating_sub(self.tau.as_ps()));
        now.max(bound)
    }

    /// Record that a cell was sent at `at` (which the caller guarantees
    /// conforms — typically obtained from [`Self::earliest_conforming`]).
    pub fn stamp(&mut self, at: Time) {
        debug_assert!(
            self.tat <= at + self.tau,
            "stamped a non-conforming departure"
        );
        self.tat = self.tat.max(at) + self.t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcra_ns(t_ns: u64, tau_ns: u64) -> Gcra {
        Gcra::new(Duration::from_ns(t_ns), Duration::from_ns(tau_ns))
    }

    #[test]
    fn exactly_spaced_cells_conform() {
        let mut g = gcra_ns(100, 0);
        for i in 0..100 {
            assert!(g.conforms(Time::from_ns(i * 100)));
        }
    }

    #[test]
    fn early_cell_without_tolerance_fails() {
        let mut g = gcra_ns(100, 0);
        assert!(g.conforms(Time::from_ns(0)));
        assert!(!g.conforms(Time::from_ns(50)), "50ns early, τ=0");
        // State unchanged by the violation: a conforming cell at 100 passes.
        assert!(g.conforms(Time::from_ns(100)));
    }

    #[test]
    fn tolerance_admits_bounded_burst() {
        // τ = 3T admits a back-to-back burst of 4 cells (MBS = 1 + τ/T... for
        // back-to-back at infinite line rate: cells at t=0,0,0,0).
        let mut g = gcra_ns(100, 300);
        let t0 = Time::from_ns(1000);
        let mut admitted = 0;
        for _ in 0..10 {
            if g.conforms(t0) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4);
    }

    #[test]
    fn slower_than_contract_always_conforms() {
        let mut g = gcra_ns(100, 0);
        for i in 0..50 {
            assert!(g.conforms(Time::from_ns(i * 150)));
        }
    }

    #[test]
    fn earliest_conforming_spaces_cells() {
        let mut g = gcra_ns(100, 0);
        let mut now = Time::ZERO;
        let mut departures = Vec::new();
        for _ in 0..5 {
            let at = g.earliest_conforming(now);
            g.stamp(at);
            departures.push(at);
            now = at; // greedy sender: ready immediately
        }
        assert_eq!(
            departures,
            vec![
                Time::from_ns(0),
                Time::from_ns(100),
                Time::from_ns(200),
                Time::from_ns(300),
                Time::from_ns(400)
            ]
        );
    }

    #[test]
    fn shaped_stream_conforms_at_policer() {
        // Whatever a shaper with GCRA(T,0) emits, a policer with the same
        // parameters must accept.
        let mut shaper = gcra_ns(273, 0);
        let mut policer = gcra_ns(273, 0);
        let mut now = Time::ZERO;
        for i in 0..1000 {
            let at = shaper.earliest_conforming(now);
            shaper.stamp(at);
            assert!(policer.conforms(at), "cell {i} rejected");
            // Sender becomes ready again at arbitrary (sometimes bursty) times.
            now = if i % 7 == 0 {
                at
            } else {
                at + Duration::from_ns((i % 5) * 50)
            };
        }
    }

    #[test]
    fn from_rate_matches_increment() {
        let g = Gcra::from_rate(1e6, 0.0); // 1M cells/s → T = 1 µs
        assert_eq!(g.increment(), Duration::from_us(1));
    }

    #[test]
    fn idle_connection_does_not_accumulate_credit_beyond_tau() {
        let mut g = gcra_ns(100, 0);
        assert!(g.conforms(Time::from_us(100))); // long idle
                                                 // Immediately after, still limited to one per T.
        assert!(!g.conforms(Time::from_us(100)));
    }
}
