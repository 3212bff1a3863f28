//! Quickstart: two host interfaces back to back over a SONET OC-3 link.
//!
//! ```text
//! cargo run -p hni-bench --example quickstart
//! ```
//!
//! Opens a virtual connection, pushes a handful of packets through the
//! complete byte-exact path — AAL5 segmentation, ATM cells, SONET
//! framing with scrambling and parity, frame alignment, cell
//! delineation, reassembly — and prints what each layer saw.

use hni_atm::VcId;
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::Time;
use hni_sonet::LineRate;

fn main() {
    let cfg = NicConfig::paper(LineRate::Oc3);
    let mut alice = Nic::new(cfg.clone());
    let mut bob = Nic::new(cfg);

    let vc = VcId::new(0, 42);
    alice.open_vc(vc).expect("CAM has room");
    bob.open_vc(vc).expect("CAM has room");

    // Let bob's receiver acquire frame alignment and cell delineation
    // from alice's idle signal, as a real receiver would before traffic.
    for _ in 0..12 {
        let frame = alice.frame_tick();
        bob.receive_line_octets(&frame, Time::ZERO);
    }
    println!(
        "receiver synchronized: frame alignment = {:?}, cell delineation = {:?}",
        bob.tc_receiver().aligner().state(),
        bob.tc_receiver().delineator().state(),
    );

    // Send a few packets of different sizes.
    let payloads: Vec<Vec<u8>> = vec![
        b"hello, aurora testbed".to_vec(),
        vec![0xAB; 4096],
        (0..9180).map(|i| (i % 251) as u8).collect(),
    ];
    for p in &payloads {
        alice
            .send(vc, p.clone(), Time::ZERO)
            .expect("vc open, size ok");
    }
    println!(
        "alice queued {} SDUs as {} cells",
        alice.sdus_sent(),
        alice.tc_transmitter().data_cells()
    );

    // Clock 125 µs frames across the link until everything arrives.
    let mut received = Vec::new();
    let mut frames = 0;
    while received.len() < payloads.len() && frames < 100 {
        let frame = alice.frame_tick();
        frames += 1;
        bob.receive_line_octets(&frame, Time::ZERO);
        while let Some(ev) = bob.poll() {
            match ev {
                NicEvent::PacketReceived { vc, data, .. } => {
                    println!("bob received {} octets on VC {vc}", data.len());
                    received.push(data);
                }
                other => println!("unexpected event: {other:?}"),
            }
        }
    }

    assert_eq!(received, payloads, "every byte must survive the path");
    println!(
        "\n{} SONET frames ({} µs of line time) carried {} data cells and {} idle cells",
        frames,
        frames * 125,
        bob.tc_receiver().data_cells(),
        alice.tc_transmitter().idle_cells(),
    );
    println!(
        "B1/B2/B3 parity errors seen: {}/{}/{} (clean fibre)",
        bob.tc_receiver().parser().total_b1_errors(),
        bob.tc_receiver().parser().total_b2_errors(),
        bob.tc_receiver().parser().total_b3_errors(),
    );
    println!("quickstart OK — all {} payloads intact", received.len());
}
