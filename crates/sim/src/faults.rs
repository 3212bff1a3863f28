//! Deterministic, seeded fault plans — the misbehaviour vocabulary for
//! every injection point in the workspace.
//!
//! A [`FaultPlan`] describes what can go wrong to a stream of
//! transmitted units (cells, frames, bus words): whole-unit loss, bit
//! corruption, duplication, and bounded reordering. Loss and corruption
//! are driven by a [`FaultProcess`] — either the degenerate i.i.d.
//! process (one Bernoulli rate, what the old `FaultSpec` expressed) or a
//! two-state **Gilbert–Elliott** chain whose Good/Bad states make
//! errors bursty, the way real links and congested switches actually
//! fail.
//!
//! A [`FaultInjector`] owns the plan, the channel state and the RNG
//! stream, and answers one question per unit: *what is this unit's
//! fate?* Everything is deterministic per seed, and the empty plan is
//! free — [`FaultInjector::fate`] on [`FaultPlan::NONE`] draws **zero**
//! random values and allocates nothing, a contract the golden tests
//! pin down with [`crate::rng::Rng::draws`].
//!
//! Bus-level faults (arbitration stalls, aborted-and-retried bursts)
//! have their own tiny plan, [`BusFaultPlan`], consumed by the bus
//! model in `hni-core`.

use crate::rng::Rng;
use crate::time::Duration;

/// Parameters of a two-state Gilbert–Elliott channel.
///
/// The chain steps once per transmitted unit: from Good it enters Bad
/// with `p_good_to_bad`, from Bad it recovers with `p_bad_to_good`.
/// While in a state, events (unit loss or bit errors, depending on
/// which process the chain drives) occur at that state's rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeParams {
    /// Per-unit probability of entering the Bad state from Good.
    pub p_good_to_bad: f64,
    /// Per-unit probability of recovering from Bad to Good.
    pub p_bad_to_good: f64,
    /// Event rate while Good (often 0.0).
    pub good: f64,
    /// Event rate while Bad (≫ `good`; that is the point).
    pub bad: f64,
}

impl GeParams {
    fn validate(&self, what: &str) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("good", self.good),
            ("bad", self.bad),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{what}: Gilbert–Elliott {name} {p} outside [0,1]"
            );
        }
    }
}

/// A stochastic process supplying a per-unit event rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultProcess {
    /// Never.
    Off,
    /// Independent, identically distributed: a fixed rate every unit —
    /// the degenerate one-state plan the old `FaultSpec` expressed.
    Iid(f64),
    /// Bursty: rate follows a two-state Gilbert–Elliott chain.
    Ge(GeParams),
}

impl FaultProcess {
    /// Does this process ever fire?
    pub fn is_off(&self) -> bool {
        match self {
            FaultProcess::Off => true,
            FaultProcess::Iid(p) => *p <= 0.0,
            FaultProcess::Ge(g) => g.good <= 0.0 && (g.bad <= 0.0 || g.p_good_to_bad <= 0.0),
        }
    }

    fn validate(&self, what: &str) {
        match self {
            FaultProcess::Off => {}
            FaultProcess::Iid(p) => {
                assert!(
                    (0.0..=1.0).contains(p),
                    "{what}: i.i.d. rate {p} outside [0,1]"
                )
            }
            FaultProcess::Ge(g) => g.validate(what),
        }
    }
}

/// Channel state for one [`FaultProcess`] (only Gilbert–Elliott chains
/// carry state; the others are memoryless).
#[derive(Clone, Copy, Debug, Default)]
struct ProcState {
    bad: bool,
}

impl ProcState {
    /// Advance the chain one unit and return the current event rate.
    fn step(&mut self, proc: &FaultProcess, rng: &mut Rng) -> f64 {
        match proc {
            FaultProcess::Off => 0.0,
            FaultProcess::Iid(p) => *p,
            FaultProcess::Ge(g) => {
                let flip = if self.bad {
                    g.p_bad_to_good
                } else {
                    g.p_good_to_bad
                };
                if rng.chance(flip) {
                    self.bad = !self.bad;
                }
                if self.bad {
                    g.bad
                } else {
                    g.good
                }
            }
        }
    }
}

/// A deterministic description of everything a channel may do to a
/// stream of units. Strict superset of the old `FaultSpec { loss, ber }`
/// pair, which it replaces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Whole-unit loss process (per-unit rate).
    pub loss: FaultProcess,
    /// Bit-corruption process (per-**bit** rate while sampled).
    pub errors: FaultProcess,
    /// Per-unit probability that a surviving unit is delivered twice.
    pub duplication: f64,
    /// Per-unit probability that a surviving unit is displaced.
    pub reorder_probability: f64,
    /// Maximum displacement, in unit-times, of a reordered unit
    /// (uniform in `1..=span`). Bounded so delivery never starves.
    pub reorder_span: u32,
}

impl FaultPlan {
    /// The empty plan: nothing ever happens, and proving it costs no
    /// randomness.
    pub const NONE: FaultPlan = FaultPlan {
        loss: FaultProcess::Off,
        errors: FaultProcess::Off,
        duplication: 0.0,
        reorder_probability: 0.0,
        reorder_span: 0,
    };

    /// Only i.i.d. whole-unit loss (the old `FaultSpec::loss`).
    pub fn loss(p: f64) -> Self {
        FaultPlan {
            loss: FaultProcess::Iid(p),
            ..FaultPlan::NONE
        }
    }

    /// Only i.i.d. bit errors (the old `FaultSpec::ber`).
    pub fn ber(p: f64) -> Self {
        FaultPlan {
            errors: FaultProcess::Iid(p),
            ..FaultPlan::NONE
        }
    }

    /// The old two-knob `FaultSpec`: i.i.d. loss plus i.i.d. bit errors.
    pub fn iid(loss: f64, ber: f64) -> Self {
        FaultPlan {
            loss: FaultProcess::Iid(loss),
            errors: FaultProcess::Iid(ber),
            ..FaultPlan::NONE
        }
    }

    /// Bursty whole-unit loss driven by a Gilbert–Elliott chain.
    pub fn bursty_loss(g: GeParams) -> Self {
        FaultPlan {
            loss: FaultProcess::Ge(g),
            ..FaultPlan::NONE
        }
    }

    /// Add duplication to a plan.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplication = p;
        self
    }

    /// Add bounded reordering to a plan.
    pub fn with_reorder(mut self, p: f64, span: u32) -> Self {
        self.reorder_probability = p;
        self.reorder_span = span;
        self
    }

    /// True when no fault of any kind can ever fire. The injector's
    /// fast path keys off this.
    pub fn is_none(&self) -> bool {
        self.loss.is_off()
            && self.errors.is_off()
            && self.duplication <= 0.0
            && (self.reorder_probability <= 0.0 || self.reorder_span == 0)
    }

    /// Panic on out-of-range parameters (probabilities outside `[0,1]`).
    pub fn validate(&self) {
        self.loss.validate("loss");
        self.errors.validate("errors");
        assert!(
            (0.0..=1.0).contains(&self.duplication),
            "duplication {} outside [0,1]",
            self.duplication
        );
        assert!(
            (0.0..=1.0).contains(&self.reorder_probability),
            "reorder_probability {} outside [0,1]",
            self.reorder_probability
        );
    }
}

/// The fate of one transmitted unit, as decided by a [`FaultInjector`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitFate {
    /// The unit never arrives. All other fields are then meaningless.
    pub lost: bool,
    /// A second copy of the unit arrives one unit-time after the first.
    /// The bit flips in `flipped_bits` hit the first copy only; the
    /// duplicate is the unit as sent.
    pub duplicated: bool,
    /// Late delivery: the unit is displaced this many unit-times,
    /// letting up to that many successors overtake it. 0 = in order.
    pub displaced: u32,
    /// Bit positions inverted in flight (0 = first bit on the wire).
    pub flipped_bits: Vec<u64>,
}

impl UnitFate {
    /// Untouched delivery. Allocation-free.
    pub const CLEAN: UnitFate = UnitFate {
        lost: false,
        duplicated: false,
        displaced: 0,
        flipped_bits: Vec::new(),
    };

    const LOST: UnitFate = UnitFate {
        lost: true,
        duplicated: false,
        displaced: 0,
        flipped_bits: Vec::new(),
    };
}

/// A seeded fault plan bound to its channel state and RNG stream:
/// feed it units, it hands back fates. Deterministic per seed.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    loss_state: ProcState,
    error_state: ProcState,
    lost: u64,
}

impl FaultInjector {
    /// Bind a validated plan to an RNG stream.
    pub fn new(plan: FaultPlan, rng: Rng) -> Self {
        plan.validate();
        FaultInjector {
            plan,
            rng,
            loss_state: ProcState::default(),
            error_state: ProcState::default(),
            lost: 0,
        }
    }

    /// Convenience: seed an injector directly.
    pub fn seeded(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector::new(plan, Rng::new(seed))
    }

    /// Decide the fate of the next unit of `bits` bits.
    ///
    /// The loss and error chains each step once per unit (the channel
    /// evolves whether or not the unit survives); flip positions are
    /// drawn by geometric gap sampling, so rare BERs cost O(errors),
    /// not O(bits). With [`FaultPlan::NONE`] this draws zero random
    /// values and performs zero allocations.
    pub fn fate(&mut self, bits: u64) -> UnitFate {
        if self.plan.is_none() {
            return UnitFate::CLEAN;
        }
        let loss_p = self.loss_state.step(&self.plan.loss, &mut self.rng);
        let error_p = self.error_state.step(&self.plan.errors, &mut self.rng);
        if self.rng.chance(loss_p) {
            self.lost += 1;
            return UnitFate::LOST;
        }
        let mut flipped = Vec::new();
        if error_p > 0.0 {
            let mut pos: u64 = 0;
            loop {
                let gap = self.rng.geometric(error_p);
                pos = match pos.checked_add(gap) {
                    Some(p) => p,
                    None => break,
                };
                if pos > bits {
                    break;
                }
                flipped.push(pos - 1);
            }
        }
        let duplicated = self.rng.chance(self.plan.duplication);
        let displaced =
            if self.plan.reorder_span > 0 && self.rng.chance(self.plan.reorder_probability) {
                1 + self.rng.below(self.plan.reorder_span as u64) as u32
            } else {
                0
            };
        UnitFate {
            lost: false,
            duplicated,
            displaced,
            flipped_bits: flipped,
        }
    }

    /// Units destroyed.
    pub fn lost(&self) -> u64 {
        self.lost
    }
    /// Raw RNG values consumed — zero for the empty plan, forever.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }
}

/// A deterministic one-way propagation-delay model: a fixed base delay
/// plus optional seeded jitter, uniform in `[0, jitter]`.
///
/// This is the piece [`FaultPlan`] deliberately does not express: *when*
/// a surviving unit arrives, as opposed to *whether* and *how mangled*.
/// Closed-loop transports care because the feedback delay — not the
/// loss rate — sets the cost of every retransmission decision. The
/// model is two numbers so that a scenario (LAN, WAN, satellite) can be
/// named as a constant; the stateful, RNG-owning half is [`DelayLine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayModel {
    /// Fixed one-way propagation delay applied to every unit.
    pub base: Duration,
    /// Maximum extra delay; each unit draws uniformly in `[0, jitter]`.
    /// `Duration::ZERO` disables jitter and costs no randomness.
    pub jitter: Duration,
}

impl DelayModel {
    /// Zero delay, zero jitter — a wire of no length.
    pub const NONE: DelayModel = DelayModel {
        base: Duration::ZERO,
        jitter: Duration::ZERO,
    };

    /// A fixed delay with no jitter.
    pub const fn fixed(base: Duration) -> Self {
        DelayModel {
            base,
            jitter: Duration::ZERO,
        }
    }

    /// A base delay with seeded uniform jitter on top.
    pub const fn jittered(base: Duration, jitter: Duration) -> Self {
        DelayModel { base, jitter }
    }

    /// Worst-case one-way delay under this model.
    pub fn max_delay(&self) -> Duration {
        self.base + self.jitter
    }
}

/// A [`DelayModel`] bound to its private RNG stream: feed it units, it
/// hands back one-way delays. Deterministic per seed, and the jitterless
/// model draws **zero** random values — the same contract
/// [`FaultInjector::fate`] honours for [`FaultPlan::NONE`].
#[derive(Clone, Debug)]
pub struct DelayLine {
    model: DelayModel,
    rng: Rng,
}

impl DelayLine {
    /// Bind a delay model to an RNG stream.
    pub fn new(model: DelayModel, rng: Rng) -> Self {
        DelayLine { model, rng }
    }

    /// Convenience: seed a delay line directly.
    pub fn seeded(model: DelayModel, seed: u64) -> Self {
        DelayLine::new(model, Rng::new(seed))
    }

    /// One-way delay for the next unit.
    pub fn delay(&mut self) -> Duration {
        if self.model.jitter == Duration::ZERO {
            return self.model.base;
        }
        let extra = self.rng.below(self.model.jitter.as_ps() + 1);
        self.model.base + Duration::from_ps(extra)
    }

    /// Raw RNG values consumed — zero for a jitterless model, forever.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }
}

/// Fault plan for a shared-bus model: per-grant arbitration stalls and
/// aborted-then-retried bursts. Carries its own seed so a config struct
/// can describe the whole fault scenario in one value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusFaultPlan {
    /// Per-grant probability that arbitration stalls before the burst.
    pub stall_probability: f64,
    /// Extra bus cycles lost to one stall.
    pub stall_cycles: u32,
    /// Per-grant probability that the burst aborts and is retried once
    /// (the bus stays busy for both attempts).
    pub retry_probability: f64,
    /// Seed for the bus's private fault stream.
    pub seed: u64,
}

impl BusFaultPlan {
    /// No bus faults.
    pub const NONE: BusFaultPlan = BusFaultPlan {
        stall_probability: 0.0,
        stall_cycles: 0,
        retry_probability: 0.0,
        seed: 0,
    };

    /// True when no fault can fire (the seed is irrelevant then).
    pub fn is_none(&self) -> bool {
        (self.stall_probability <= 0.0 || self.stall_cycles == 0) && self.retry_probability <= 0.0
    }

    /// Panic on out-of-range probabilities.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.stall_probability),
            "stall_probability {} outside [0,1]",
            self.stall_probability
        );
        assert!(
            (0.0..=1.0).contains(&self.retry_probability),
            "retry_probability {} outside [0,1]",
            self.retry_probability
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_free() {
        let mut inj = FaultInjector::seeded(FaultPlan::NONE, 7);
        for _ in 0..10_000 {
            let fate = inj.fate(424);
            assert_eq!(fate, UnitFate::CLEAN);
        }
        assert_eq!(inj.rng_draws(), 0, "empty plan must consume no randomness");
        assert_eq!(inj.lost(), 0);
    }

    #[test]
    fn iid_loss_rate_statistical() {
        let mut inj = FaultInjector::seeded(FaultPlan::loss(0.3), 11);
        let n = 20_000;
        let lost = (0..n).filter(|_| inj.fate(424).lost).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
        assert_eq!(inj.lost(), lost as u64);
    }

    #[test]
    fn iid_ber_statistical() {
        let ber = 1e-3;
        let mut inj = FaultInjector::seeded(FaultPlan::ber(ber), 13);
        let bits = 424u64;
        let n = 50_000u64;
        let mut flips = 0u64;
        for _ in 0..n {
            let f = inj.fate(bits);
            for &b in &f.flipped_bits {
                assert!(b < bits);
            }
            flips += f.flipped_bits.len() as u64;
        }
        let observed = flips as f64 / (n * bits) as f64;
        assert!(
            (observed - ber).abs() / ber < 0.1,
            "observed BER {observed}"
        );
    }

    #[test]
    fn ge_loss_is_bursty() {
        // Mean sojourns: 1000 units Good, 20 units Bad; loss-free Good,
        // lossy Bad. i.i.d. loss at the same average rate would almost
        // never produce back-to-back losses; the chain produces runs.
        let g = GeParams {
            p_good_to_bad: 0.001,
            p_bad_to_good: 0.05,
            good: 0.0,
            bad: 0.9,
        };
        let mut inj = FaultInjector::seeded(FaultPlan::bursty_loss(g), 17);
        let fates: Vec<bool> = (0..200_000).map(|_| inj.fate(424).lost).collect();
        let lost = fates.iter().filter(|&&l| l).count();
        assert!(lost > 500, "chain never entered Bad ({lost} losses)");
        let mut longest_run = 0usize;
        let mut run = 0usize;
        for &l in &fates {
            run = if l { run + 1 } else { 0 };
            longest_run = longest_run.max(run);
        }
        assert!(
            longest_run >= 5,
            "losses not bursty: longest run {longest_run}"
        );
    }

    #[test]
    fn duplication_and_reorder_fire_and_are_bounded() {
        let plan = FaultPlan::NONE.with_duplication(0.1).with_reorder(0.2, 4);
        assert!(!plan.is_none());
        let mut inj = FaultInjector::seeded(plan, 19);
        let n = 20_000;
        let mut dups = 0u64;
        let mut moved = 0u64;
        for _ in 0..n {
            let f = inj.fate(424);
            assert!(!f.lost);
            assert!(f.displaced <= 4);
            dups += f.duplicated as u64;
            moved += (f.displaced > 0) as u64;
        }
        let dup_rate = dups as f64 / n as f64;
        let re_rate = moved as f64 / n as f64;
        assert!((dup_rate - 0.1).abs() < 0.01, "dup rate {dup_rate}");
        assert!((re_rate - 0.2).abs() < 0.015, "reorder rate {re_rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let plan = FaultPlan::iid(0.05, 1e-4)
                .with_duplication(0.02)
                .with_reorder(0.03, 8);
            let mut inj = FaultInjector::seeded(plan, seed);
            (0..5_000).map(|_| inj.fate(424)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn is_none_catches_degenerate_parameters() {
        assert!(FaultPlan::NONE.is_none());
        assert!(FaultPlan::loss(0.0).is_none());
        assert!(FaultPlan::ber(0.0).is_none());
        // Reorder with zero span can never displace anything.
        assert!(FaultPlan::NONE.with_reorder(0.5, 0).is_none());
        // A Ge chain that can't leave Good and is loss-free there is off.
        let g = GeParams {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.1,
            good: 0.0,
            bad: 1.0,
        };
        assert!(FaultPlan::bursty_loss(g).is_none());
        assert!(!FaultPlan::loss(0.1).is_none());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn validate_rejects_bad_probability() {
        FaultInjector::seeded(FaultPlan::loss(1.5), 1);
    }

    #[test]
    fn fixed_delay_line_is_free() {
        let model = DelayModel::fixed(Duration::from_ms(270));
        assert_eq!(model.jitter, Duration::ZERO);
        let mut line = DelayLine::seeded(model, 3);
        for _ in 0..10_000 {
            assert_eq!(line.delay(), Duration::from_ms(270));
        }
        assert_eq!(
            line.rng_draws(),
            0,
            "jitterless line must cost no randomness"
        );
    }

    #[test]
    fn jittered_delay_bounded_and_deterministic() {
        let model = DelayModel::jittered(Duration::from_us(500), Duration::from_us(100));
        assert_ne!(model.jitter, Duration::ZERO);
        assert_eq!(model.max_delay(), Duration::from_us(600));
        let run = |seed| {
            let mut line = DelayLine::seeded(model, seed);
            (0..5_000).map(|_| line.delay()).collect::<Vec<_>>()
        };
        let a = run(9);
        for &d in &a {
            assert!(d >= Duration::from_us(500) && d <= Duration::from_us(600));
        }
        // The jitter actually moves: not every delay is the base.
        assert!(a.iter().any(|&d| d != Duration::from_us(500)));
        assert_eq!(a, run(9));
        assert_ne!(a, run(10));
    }

    #[test]
    fn bus_plan_none_detection() {
        assert!(BusFaultPlan::NONE.is_none());
        let stalls = BusFaultPlan {
            stall_probability: 0.1,
            stall_cycles: 3,
            ..BusFaultPlan::NONE
        };
        assert!(!stalls.is_none());
        // Stalls of zero cycles are not faults.
        let free_stalls = BusFaultPlan {
            stall_probability: 0.1,
            stall_cycles: 0,
            ..BusFaultPlan::NONE
        };
        assert!(free_stalls.is_none());
    }
}
