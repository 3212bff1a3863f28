//! The span index under adversity: link fault plans duplicate, drop
//! and reorder cells between the two adaptors, and the tail-anatomy
//! layer must stay coherent — duplicated cells must not corrupt a
//! packet's stage edges, lost packets must leave attributable partial
//! spans rather than poisoning the index, and the slowest traced life
//! must carry the histogram's exact maximum.

use hni_atm::VcId;
use hni_core::e2esim::run_e2e_full;
use hni_core::rxsim::RxConfig;
use hni_core::txsim::{greedy_workload, TxConfig, TxPacket};
use hni_sim::{Duration, FaultPlan};
use hni_sonet::LineRate;
use hni_telemetry::{attribute_tail, NullProfiler, PacketSpans, VecTracer};

const PROPAGATION: Duration = Duration::from_us(5);

fn workload(n: usize) -> Vec<TxPacket> {
    greedy_workload(n, 9180, VcId::new(0, 32))
}

/// The paper receive configuration behind a seeded link fault plan.
fn faulted_rx(plan: FaultPlan, seed: u64) -> RxConfig {
    RxConfig {
        link_faults: plan,
        link_seed: seed,
        ..RxConfig::paper(LineRate::Oc12)
    }
}

/// Duplication only: every cell survives, some arrive twice. Every
/// packet still completes, and the duplicate deliveries — which hit the
/// reassembler mid-SDU and are counted as errors there — must not
/// perturb the span index's edge capture (first-wins/last-wins fields
/// absorb the extra events without double counting).
#[test]
fn duplicated_cells_keep_every_span_telescoping() {
    // Rate chosen so the seeded run both duplicates cells AND leaves
    // survivors: a duplicate landing mid-SDU corrupts that reassembly
    // (extra cell → length/CRC mismatch), so at high rates every SDU
    // dies and there is nothing left to index.
    let plan = FaultPlan {
        duplication: 0.002,
        ..FaultPlan::NONE
    };
    let mut tracer = VecTracer::new();
    let report = run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &faulted_rx(plan, 0xd0b1e5),
        &workload(12),
        PROPAGATION,
        &mut tracer,
        &mut NullProfiler,
    );
    let lf = report.rx.link;
    assert!(lf.duplicated > 0, "plan must actually duplicate: {lf:?}");
    let spans = PacketSpans::from_events(&tracer.into_events());
    assert_eq!(spans.len(), 12);
    let mut complete = 0;
    for p in spans.packets() {
        let life = spans.life(p).expect("every packet was traced");
        if !life.is_complete() {
            continue;
        }
        complete += 1;
        let total = life.total().expect("complete life has a total");
        let sum: Duration = life
            .breakdown()
            .iter()
            .map(|s| s.total())
            .fold(Duration::ZERO, |a, b| a + b);
        assert_eq!(sum, total, "pkt {p}: stages must telescope to total");
    }
    // Duplicates alone kill no SDU whose extra copy lands as an error
    // cell *after* reassembly already completed — but copies landing
    // mid-SDU can. The run must still complete packets to attribute.
    assert!(complete > 0, "duplication-only run completed no packets");
    assert_eq!(complete as u64, report.latency_hist.pcts().count);
}

/// Heavy loss: some packets never complete. Their lives must stay in
/// the index with attributable transmit-side spans (they have no
/// total, but the breakdown names the stages that did run) and the
/// cohort attributor must simply exclude them.
#[test]
fn lost_packets_leave_partial_but_attributable_spans() {
    let plan = FaultPlan::loss(0.05);
    let mut tracer = VecTracer::new();
    let report = run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &faulted_rx(plan, 0x10557),
        &workload(20),
        PROPAGATION,
        &mut tracer,
        &mut NullProfiler,
    );
    let lf = report.rx.link;
    assert!(lf.dropped > 0, "plan must actually drop: {lf:?}");
    let spans = PacketSpans::from_events(&tracer.into_events());
    let incomplete: Vec<u32> = spans
        .packets()
        .filter(|&p| spans.life(p).is_some_and(|l| !l.is_complete()))
        .collect();
    assert!(
        !incomplete.is_empty(),
        "5% cell loss over 20 SDUs should kill at least one"
    );
    for &p in &incomplete {
        let life = spans.life(p).unwrap();
        assert!(life.total().is_none(), "pkt {p} must have no total");
        // The transmit side ran to the wire regardless of what the link
        // did, so the partial breakdown reaches at least serialization.
        let stages = life.breakdown();
        assert!(
            stages.iter().any(|s| s.label == "serialize"),
            "pkt {p}: tx-side spans missing from partial life: {stages:?}"
        );
    }
    // The attributor sees only completed lives; with survivors present
    // it must still produce a (possibly empty) verdict without panic.
    let survivors = spans.len() - incomplete.len();
    assert_eq!(survivors as u64, report.latency_hist.pcts().count);
    if survivors >= 2 {
        let _ = attribute_tail(&spans);
    }
}

/// The slowest traced life must carry the histogram's exact max, tying
/// the span index and the report's histogram to one measurement, and
/// must be the same packet on a rerun.
#[test]
fn reservoir_names_the_histogram_max_and_reruns_identically() {
    let run = || {
        let mut tracer = VecTracer::new();
        let r = run_e2e_full(
            &TxConfig::paper(LineRate::Oc12),
            &RxConfig::paper(LineRate::Oc12),
            &workload(20),
            PROPAGATION,
            &mut tracer,
            &mut NullProfiler,
        );
        let spans = PacketSpans::from_events(&tracer.into_events());
        let slowest = spans
            .packets()
            .filter_map(|p| Some((spans.life(p)?.total()?.as_ps(), p)))
            .max();
        (r.latency_hist.pcts().max, slowest)
    };
    let (max, slowest) = run();
    assert_eq!(
        slowest.map(|(latency_ps, _)| latency_ps),
        Some(max),
        "slowest traced life must carry the histogram's exact max"
    );
    assert_eq!(run().1, slowest, "slowest life not stable across reruns");
}

/// Zero-length SDUs through the real faulted path: the span index's
/// setup-edge fallback must hold outside the unit tests too.
#[test]
fn zero_length_packets_survive_the_faulted_path() {
    let mut wl = workload(4);
    for p in wl.iter_mut().take(2) {
        p.len = 0;
    }
    let mut tracer = VecTracer::new();
    let plan = FaultPlan {
        duplication: 0.02,
        ..FaultPlan::NONE
    };
    let lf = run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &faulted_rx(plan, 0x1e43),
        &wl,
        PROPAGATION,
        &mut tracer,
        &mut NullProfiler,
    )
    .rx
    .link;
    assert_eq!(lf.dropped, 0, "duplication-only plan must not drop");
    let spans = PacketSpans::from_events(&tracer.into_events());
    for p in spans.packets() {
        let life = spans.life(p).unwrap();
        if life.is_complete() {
            assert!(life.total().is_some());
            assert!(!life.breakdown().is_empty());
        }
    }
    assert!(
        spans
            .packets()
            .filter_map(|p| spans.life(p))
            .any(|l| l.is_complete()),
        "at least the non-empty SDUs must complete"
    );
}
