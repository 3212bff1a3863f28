//! R-O2 (observability): cohort critical-path attribution
//! machine-checked against an injected bottleneck.
//!
//! R-O1 validates the *utilization* attribution (which resource is
//! busiest). This experiment validates the *tail* attribution (which
//! stage makes the p99 slow) the same way: derive the verdict from
//! measurement alone, then require it to match a bottleneck we planted
//! and can price analytically.
//!
//! The workload is deliberately tail-free: packets are paced far enough
//! apart that no pipeline stage queues, so the baseline cohorts are
//! (near-)identical and the attributor finds little or nothing to
//! blame. The injection is a *rare, huge* arbitration stall on the
//! receive host bus ([`STALL_CYCLES`] cycles at probability
//! [`STALL_PROBABILITY`], seeded — a handful of delivery-DMA grants in
//! the whole run lose milliseconds). A uniform slowdown would leave
//! the tail's *relative* anatomy unchanged; a rare one manufactures a
//! tail cohort of stall victims whose excess lives in exactly one
//! stage. The attributor, which never sees the fault plan, must blame
//! "deliver dma" — and the victim's measured span must contain at
//! least its own stalled grant, giving an exact analytic floor of
//! `STALL_CYCLES × cycle()` on the max deliver-DMA growth.

use crate::experiments::rf3_latency::PROPAGATION;
use crate::table::Table;
use hni_atm::VcId;
use hni_core::bus::BusConfig;
use hni_core::e2esim::run_e2e_full;
use hni_core::rxsim::RxConfig;
use hni_core::txsim::{greedy_workload, TxConfig, TxPacket};
use hni_sim::{BusFaultPlan, Duration, Time};
use hni_sonet::LineRate;
use hni_telemetry::{attribute_tail, NullProfiler, PacketSpans, TailAttribution, VecTracer};

/// Packets offered (same size as the R-F3 canonical point).
pub const PACKETS: usize = 20;
/// SDU length, octets.
pub const LEN: usize = 9180;
/// Inter-arrival spacing — beyond the ~120 µs per-packet service time,
/// so the baseline run queues nowhere.
pub const SPACING: Duration = Duration::from_us(150);
/// Bus cycles a stalled grant loses: 50k × 40 ns = 2 ms, dwarfing the
/// ~0.9 ms unloaded packet latency.
pub const STALL_CYCLES: u32 = 50_000;
/// Per-grant stall probability: ~1440 delivery grants per run × 0.003
/// ≈ a handful of victims — rare enough to stay a tail phenomenon.
pub const STALL_PROBABILITY: f64 = 0.003;

/// The paced workload: no transmit-side queueing, so the baseline has
/// no tail for the attributor to explain.
pub fn paced_workload() -> Vec<TxPacket> {
    greedy_workload(PACKETS, LEN, VcId::new(0, 32))
        .into_iter()
        .enumerate()
        .map(|(i, mut p)| {
            p.arrival = Time::ZERO + SPACING.times(i as u64);
            p
        })
        .collect()
}

/// The planted bottleneck: rare, seeded, milliseconds-long receive-bus
/// stalls.
pub fn injected_plan() -> BusFaultPlan {
    BusFaultPlan {
        stall_probability: STALL_PROBABILITY,
        stall_cycles: STALL_CYCLES,
        retry_probability: 0.0,
        seed: 0x0b5e_0002,
    }
}

/// Exact duration one stalled grant adds to the bus timeline, µs.
pub fn stall_us() -> f64 {
    BusConfig::default()
        .cycle()
        .times(STALL_CYCLES as u64)
        .as_us_f64()
}

/// Deliver-DMA span statistics over completed packets, µs.
#[derive(Clone, Copy, Debug)]
pub struct DmaStats {
    /// Mean "deliver dma" span.
    pub mean_us: f64,
    /// Largest "deliver dma" span (the victim, under injection).
    pub max_us: f64,
}

/// One attribution run: the paced workload with the given receive-bus
/// fault plan. Returns the blame table (`None` when the run is too
/// uniform to attribute — the expected baseline outcome) and the
/// deliver-DMA span stats.
pub fn attribution_with(plan: BusFaultPlan) -> (Option<TailAttribution>, DmaStats) {
    let mut rx = RxConfig::paper(LineRate::Oc12);
    rx.bus_faults = plan;
    let mut tracer = VecTracer::new();
    run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &rx,
        &paced_workload(),
        PROPAGATION,
        &mut tracer,
        &mut NullProfiler,
    );
    let spans = PacketSpans::from_events(&tracer.into_events());
    let attr = attribute_tail(&spans);
    (attr, dma_stats(&spans))
}

fn dma_stats(spans: &PacketSpans) -> DmaStats {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0u32;
    for p in spans.packets() {
        let Some(life) = spans.life(p) else { continue };
        if !life.is_complete() {
            continue;
        }
        if let Some(s) = life.breakdown().iter().find(|s| s.label == "deliver dma") {
            let us = s.total().as_us_f64();
            sum += us;
            max = max.max(us);
            n += 1;
        }
    }
    DmaStats {
        mean_us: sum / n.max(1) as f64,
        max_us: max,
    }
}

fn verdict_line(attr: &Option<TailAttribution>) -> String {
    match attr {
        Some(a) => a.headline(),
        None => "no attributable tail (cohorts indistinguishable)".to_string(),
    }
}

/// Render the experiment: baseline vs injected blame, and the analytic
/// cross-check on the planted stage's cost.
pub fn run() -> String {
    let (base, base_dma) = attribution_with(BusFaultPlan::NONE);
    let (inj, inj_dma) = attribution_with(injected_plan());
    let mut t = Table::new([
        "run",
        "blamed stage",
        "part",
        "share",
        "tail us",
        "median us",
        "max dma us",
    ]);
    for (name, a, dma) in [("baseline", &base, base_dma), ("injected", &inj, inj_dma)] {
        match a {
            Some(a) => {
                let b = a.blamed();
                t.row([
                    name.to_string(),
                    b.label.to_string(),
                    b.part.to_string(),
                    crate::table::fmt_pct(b.share),
                    format!("{:.1}", a.tail_total_us),
                    format!("{:.1}", a.median_total_us),
                    format!("{:.1}", dma.max_us),
                ]);
            }
            None => {
                t.row([
                    name.to_string(),
                    "(none)".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("{:.1}", dma.max_us),
                ]);
            }
        }
    }
    let floor = stall_us();
    let grew = inj_dma.max_us - base_dma.max_us;
    let blamed_dma = inj
        .as_ref()
        .is_some_and(|a| a.blamed().label == "deliver dma");
    let verdict = if blamed_dma && grew >= floor {
        "PASS"
    } else {
        "FAIL"
    };
    format!(
        "R-O2 — Tail attribution vs an injected bottleneck ({PACKETS} x {LEN}-octet\n\
         packets paced {spacing:.0} us apart, OC-12; seeded rare stalls of\n\
         {STALL_CYCLES} bus cycles at p={STALL_PROBABILITY} on delivery-DMA grants)\n\n{}\n\
         baseline verdict: {}\n\
         injected verdict: {}\n\
         analytic floor: a victim's deliver-dma span contains its own stalled\n\
         grant, so max deliver-dma must grow >= {floor:.1} us; measured growth:\n\
         {grew:.1} us -> {verdict}: the attributor {} the planted stage\n",
        t.render(),
        verdict_line(&base),
        verdict_line(&inj),
        if verdict == "PASS" {
            "blames"
        } else {
            "missed"
        },
        spacing = SPACING.as_us_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributor_blames_the_injected_bottleneck() {
        let (base, _) = attribution_with(BusFaultPlan::NONE);
        if let Some(base) = &base {
            assert_ne!(
                base.blamed().label,
                "deliver dma",
                "baseline tail must not already be delivery-DMA bound: {}",
                base.headline()
            );
        }
        let (inj, _) = attribution_with(injected_plan());
        let inj = inj.expect("injection must manufacture an attributable tail");
        assert_eq!(
            inj.blamed().label,
            "deliver dma",
            "attributor missed the planted stage: {}",
            inj.headline()
        );
        assert!(
            inj.blamed().share > 0.5,
            "planted stage should dominate the excess, got {}",
            inj.blamed().share
        );
    }

    #[test]
    fn stall_cost_is_bounded_by_the_analytic_model() {
        let (_, base_dma) = attribution_with(BusFaultPlan::NONE);
        let (_, inj_dma) = attribution_with(injected_plan());
        let floor = stall_us();
        let grew = inj_dma.max_us - base_dma.max_us;
        assert!(
            grew >= floor,
            "max deliver-dma grew {grew:.1} us < one stalled grant {floor:.1} us"
        );
        // Sanity ceiling: a victim can eat every stall in the run, but
        // the expectation is ~4 stalls total; 20 would mean the rare
        // injection stopped being rare.
        assert!(
            grew <= floor * 20.0,
            "growth {grew:.1} us exceeds 20 stalled grants — injection not rare"
        );
    }

    #[test]
    fn report_renders_with_pass_verdict() {
        let r = run();
        assert!(r.contains("R-O2"));
        assert!(r.contains("PASS"), "machine check failed:\n{r}");
        assert!(r.len() > 100);
    }
}
