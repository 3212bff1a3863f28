//! Golden guarantee of the telemetry layer: turning tracing on must not
//! change a single simulated outcome. Every instrumented pipeline is run
//! twice — once through its plain API (NullTracer inside) and once with
//! a recording tracer — and the reports are compared byte for byte via
//! their `Debug` rendering (which includes every counter, time and
//! statistic they carry, departure and completion schedules included).
//! `profile_golden.rs` extends the same check to live profilers, faulted
//! links and the closed-loop transport.

use hni_aal::AalType;
use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_full};
use hni_core::rxsim::{run_rx, run_rx_full, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, run_tx_full, TxConfig};
use hni_core::{DiscardPolicy, PoolConfig};
use hni_faults::{scenarios, FaultPlan};
use hni_host::{DriverCosts, HostCpu, InterruptMode, RxHostModel};
use hni_sim::{Duration, Time};
use hni_sonet::LineRate;
use hni_telemetry::{NullProfiler, Stage, VecTracer};
use hni_transport::{run_transport_full, TransportConfig};

#[path = "support/digest.rs"]
mod digest;

#[test]
fn tx_report_identical_with_tracing_on() {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(15, 9180, VcId::new(0, 32));
    let plain_report = run_tx(&cfg, &wl);
    let mut tracer = VecTracer::new();
    let traced_report = run_tx_full(&cfg, &wl, &mut tracer, &mut NullProfiler);
    assert!(!tracer.is_empty(), "instrumented run must record events");
    assert_eq!(format!("{plain_report:?}"), format!("{traced_report:?}"));
}

#[test]
fn rx_report_identical_with_tracing_on() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 6, 9180, 1.0);
    let plain_report = run_rx(&cfg, &wl);
    let mut tracer = VecTracer::new();
    let traced_report = run_rx_full(&cfg, &wl, &mut tracer, &mut NullProfiler);
    assert!(!tracer.is_empty());
    assert_eq!(format!("{plain_report:?}"), format!("{traced_report:?}"));
}

#[test]
fn e2e_report_identical_with_tracing_on() {
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(8, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &wl, prop);
    let mut tracer = VecTracer::new();
    let traced = run_e2e_full(&txc, &rxc, &wl, prop, &mut tracer, &mut NullProfiler);
    assert!(!tracer.is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn host_model_report_identical_with_tracing_on() {
    let model = RxHostModel {
        cpu: HostCpu::workstation(),
        costs: DriverCosts::default(),
        interrupts: InterruptMode::Coalesced {
            max_packets: 8,
            max_delay: Duration::from_ms(1),
        },
    };
    let arrivals: Vec<(Time, usize)> = (0..40).map(|i| (Time::from_us(10 * i), 9180)).collect();
    let plain = model.process(&arrivals);
    let mut tracer = VecTracer::new();
    let traced = model.process_instrumented(&arrivals, &mut tracer);
    assert!(!tracer.is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn functional_driver_identical_with_tracing_on() {
    use hni_core::{DriverConfig, HostDriver, Nic, NicConfig};
    use hni_telemetry::Stage;

    let run = |tracer: &mut dyn hni_telemetry::Tracer| {
        let cfg = NicConfig::paper(LineRate::Oc3);
        let mut a = HostDriver::new(Nic::new(cfg.clone()), DriverConfig::default());
        let mut b = HostDriver::new(Nic::new(cfg), DriverConfig::default());
        let vc = VcId::new(0, 66);
        a.nic_mut().open_vc(vc).unwrap();
        b.nic_mut().open_vc(vc).unwrap();
        for _ in 0..12 {
            let f = a.frame_tick(Time::ZERO);
            b.receive_line_octets(&f, Time::ZERO);
        }
        for i in 0..5u8 {
            a.send(vc, vec![i; 500], Time::ZERO).unwrap();
        }
        let mut got = Vec::new();
        for i in 0..20u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick_instrumented(now, tracer);
            b.receive_line_octets_instrumented(&f, now, tracer);
            while let Some(p) = b.poll_rx() {
                got.push(p);
            }
        }
        (got, b.interrupts())
    };

    let plain = run(&mut hni_telemetry::NullTracer);
    let mut tracer = VecTracer::new();
    let traced = run(&mut tracer);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    // The recorded stream covers the functional receive boundaries.
    for stage in [
        Stage::RxHec,
        Stage::RxCamLookup,
        Stage::RxReasmComplete,
        Stage::CompletionPush,
        Stage::Isr,
        Stage::HostDeliver,
    ] {
        assert!(
            tracer.events().iter().any(|e| e.stage == stage),
            "missing {stage:?} in driver trace"
        );
    }
}

/// An rxsim run that exercises every receive-side frame fate: a lossy,
/// duplicating, reordering link into a starved pool with the expiry
/// timer armed, under the given discard policy.
fn fate_rich_rx_trace(policy: DiscardPolicy) -> VecTracer {
    let mut cfg = RxConfig::paper(LineRate::Oc12);
    cfg.pool = PoolConfig {
        total_buffers: 24,
        cells_per_buffer: 32,
    };
    cfg.policy = policy;
    cfg.reassembly_timeout = Duration::from_us(200);
    cfg.link_faults = FaultPlan::iid(0.01, 1e-5)
        .with_duplication(0.05)
        .with_reorder(0.05, 8);
    cfg.link_seed = 1991;
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 16, 4, 2048, 1.0);
    let mut tracer = VecTracer::new();
    run_rx_full(&cfg, &wl, &mut tracer, &mut NullProfiler);
    tracer
}

/// A lossy closed-loop transport run on a WAN path.
fn lossy_transport_trace() -> VecTracer {
    let mut cfg = TransportConfig::paper(LineRate::Oc3);
    cfg.n_vcs = 2;
    cfg.frames_per_vc = 8;
    cfg.frame_len = 512;
    cfg.fwd_plan = FaultPlan::loss(0.05).with_duplication(0.01);
    cfg.rev_plan = FaultPlan::loss(0.01);
    cfg = cfg.with_path(scenarios::wan_path());
    cfg.seed = 1991;
    let mut tracer = VecTracer::new();
    run_transport_full(&cfg, &mut tracer, &mut NullProfiler);
    tracer
}

fn stream_digest(tracer: &VecTracer) -> u64 {
    digest::fnv1a64(hni_telemetry::jsonl::to_jsonl(tracer.events()).as_bytes())
}

#[test]
fn rerunning_the_trace_is_deterministic() {
    // Same workload, two recordings: identical event streams, so the
    // JSONL export is byte-identical too.
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(3, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let mut t1 = VecTracer::new();
    let mut t2 = VecTracer::new();
    run_e2e_full(&txc, &rxc, &wl, prop, &mut t1, &mut NullProfiler);
    run_e2e_full(&txc, &rxc, &wl, prop, &mut t2, &mut NullProfiler);
    assert_eq!(
        hni_telemetry::jsonl::to_jsonl(t1.events()),
        hni_telemetry::jsonl::to_jsonl(t2.events())
    );

    // Pinned content, not just repeatability: every receive-side frame
    // fate (stale, pool drop, EPD, PPD, validation failure, expiry) and
    // the closed loop's event stream must not move.
    let mut digests = Vec::new();
    for (policy, fate) in [
        (DiscardPolicy::DropTail, Stage::RxPoolDrop),
        (DiscardPolicy::Epd { threshold: 16 }, Stage::RxEpdDiscard),
        (DiscardPolicy::Ppd, Stage::RxPpdDiscard),
    ] {
        let tracer = fate_rich_rx_trace(policy);
        for stage in [
            fate,
            Stage::RxStaleDiscard,
            Stage::RxValidateFail,
            Stage::RxReasmExpire,
        ] {
            assert!(
                tracer.events().iter().any(|e| e.stage == stage),
                "{policy:?}: no {stage:?} event"
            );
        }
        digests.push(stream_digest(&tracer));
    }
    let transport = lossy_transport_trace();
    for stage in [
        Stage::RxReasmExpire,
        Stage::RxValidateFail,
        Stage::CompletionPush,
    ] {
        assert!(
            transport.events().iter().any(|e| e.stage == stage),
            "transport: no {stage:?} event"
        );
    }
    digests.push(stream_digest(&transport));
    assert_eq!(
        digests,
        [
            0x1de7_a9ad_a131_ab73, // rx drop-tail
            0x214e_b6c3_2ffc_15e7, // rx EPD
            0xb923_7dc7_16ad_1e14, // rx PPD
            0xb1b4_77b8_e17d_4496, // transport
        ],
        "current: {digests:#018x?}"
    );
}
