//! Fault-tolerance integration: the full path under line damage. No
//! corrupt data may ever be delivered, and the path must recover.

use hni_aal::AalType;
use hni_atm::VcId;
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::{link::apply_bit_errors, FaultInjector, FaultPlan, Rng, Time};
use hni_sonet::LineRate;

fn pair(aal: AalType) -> (Nic, Nic, VcId) {
    let mut cfg = NicConfig::paper(LineRate::Oc3);
    cfg.aal = aal;
    let mut a = Nic::new(cfg.clone());
    let mut b = Nic::new(cfg);
    let vc = VcId::new(0, 55);
    a.open_vc(vc).unwrap();
    b.open_vc(vc).unwrap();
    for _ in 0..12 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
    }
    (a, b, vc)
}

/// Flip bits over a frame: one fate of the `line`'s plan per frame.
fn damage(frame: &mut [u8], line: &mut FaultInjector) {
    let fate = line.fate(frame.len() as u64 * 8);
    apply_bit_errors(frame, &fate.flipped_bits);
}

#[test]
fn no_corrupt_delivery_under_bit_errors_aal5() {
    no_corrupt_delivery(AalType::Aal5, 1e-5);
}

#[test]
fn no_corrupt_delivery_under_bit_errors_aal34() {
    no_corrupt_delivery(AalType::Aal34, 1e-5);
}

fn no_corrupt_delivery(aal: AalType, ber: f64) {
    let (mut a, mut b, vc) = pair(aal);
    let mut line = FaultInjector::seeded(FaultPlan::ber(ber), 404);
    let mut sent = Vec::new();
    for i in 0..100u32 {
        let payload: Vec<u8> = (0..3000).map(|j| ((i + j) % 256) as u8).collect();
        sent.push(payload.clone());
        a.send(vc, payload, Time::ZERO).unwrap();
    }
    let mut delivered = 0;
    let mut failures = 0;
    while a.tx_backlog_cells() > 0 {
        let mut f = a.frame_tick();
        damage(&mut f, &mut line);
        b.receive_line_octets(&f, Time::ZERO);
        while let Some(e) = b.poll() {
            match e {
                NicEvent::PacketReceived { data, .. } => {
                    // Whatever arrives must be byte-exact one of the sent
                    // payloads, in order.
                    assert!(
                        sent.contains(&data),
                        "corrupt frame delivered ({} octets)",
                        data.len()
                    );
                    delivered += 1;
                }
                NicEvent::ReceiveError(_) => failures += 1,
                NicEvent::UnknownVc(_) | NicEvent::OamLoopbackReply { .. } => {
                    // A header hit that survived HEC *correction* with a
                    // wrong VCI (or had its PTI flipped into the OAM
                    // range) would land here; at 1e-5 it's essentially
                    // impossible, but it is a legal outcome, not
                    // corruption.
                }
            }
        }
    }
    assert!(
        delivered > 50,
        "most frames should survive 1e-5 ({delivered})"
    );
    assert!(
        delivered + failures >= 90,
        "delivered {delivered} + failed {failures} should account for most frames"
    );
}

#[test]
fn delineation_recovers_after_line_hit() {
    // A burst of garbage long enough to drop both frame alignment and
    // cell delineation; both must re-acquire and traffic must resume.
    let (mut a, mut b, vc) = pair(AalType::Aal5);

    a.send(vc, b"before".to_vec(), Time::ZERO).unwrap();
    let mut got_before = false;
    for _ in 0..20 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        while let Some(e) = b.poll() {
            if let NicEvent::PacketReceived { data, .. } = e {
                assert_eq!(data, b"before");
                got_before = true;
            }
        }
    }
    assert!(got_before);

    // The hit: five frames of noise.
    let mut rng = Rng::new(1);
    for _ in 0..5 {
        let noise: Vec<u8> = (0..LineRate::Oc3.frame_octets())
            .map(|_| rng.next_u64() as u8)
            .collect();
        b.receive_line_octets(&noise, Time::ZERO);
    }
    while b.poll().is_some() {}

    // Recovery: clean frames resynchronize, then data flows again.
    for _ in 0..15 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
    }
    assert!(
        b.tc_receiver().aligner().is_synced(),
        "frame alignment back"
    );
    assert!(b.tc_receiver().delineator().is_synced(), "delineation back");

    a.send(vc, b"after".to_vec(), Time::ZERO).unwrap();
    let mut got_after = false;
    for _ in 0..20 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        while let Some(e) = b.poll() {
            if let NicEvent::PacketReceived { data, .. } = e {
                assert_eq!(data, b"after");
                got_after = true;
            }
        }
    }
    assert!(got_after, "traffic must resume after resync");
}

#[test]
fn sonet_parity_counts_scale_with_ber() {
    let (mut a, mut b, vc) = pair(AalType::Aal5);
    let mut line = FaultInjector::seeded(FaultPlan::ber(1e-5), 5);
    for i in 0..50u32 {
        a.send(vc, vec![i as u8; 2000], Time::ZERO).unwrap();
    }
    while a.tx_backlog_cells() > 0 {
        let mut f = a.frame_tick();
        damage(&mut f, &mut line);
        b.receive_line_octets(&f, Time::ZERO);
        while b.poll().is_some() {}
    }
    let p = b.tc_receiver().parser();
    // B1 covers everything: with ~2430×8 bits per frame at 1e-5, roughly
    // one bit in five frames — dozens over this run.
    assert!(p.total_b1_errors() > 0, "B1 must register line damage");
    // B1 ≥ B3: section parity covers a superset of the path payload.
    assert!(p.total_b1_errors() >= p.total_b3_errors());
}
