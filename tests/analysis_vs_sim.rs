//! Cross-validation: the closed-form analysis against the discrete-event
//! simulations, and the analytic loss model against the byte-exact path.
//! Two independent evaluation methods must meet.

use hni_aal::AalType;
use hni_analysis::loss::goodput_under_loss;
use hni_analysis::throughput::{predict_rx, predict_tx};
use hni_atm::VcId;
use hni_bench::experiments::rf5_loss::functional_survival;
use hni_core::engine::HwPartition;
use hni_core::rxsim::{run_rx, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, TxConfig};
use hni_sonet::LineRate;

#[test]
fn tx_sim_tracks_analysis_across_the_grid() {
    for rate in [LineRate::Oc3, LineRate::Oc12] {
        for partition in [HwPartition::all_software(), HwPartition::paper_split()] {
            for len in [1024usize, 9180, 65000] {
                let mut cfg = TxConfig::paper(rate);
                cfg.partition = partition;
                let sim = run_tx(&cfg, &greedy_workload(15, len, VcId::new(0, 32)));
                let ana = predict_tx(len, &partition, cfg.mips, &cfg.bus, rate, cfg.aal);
                let ratio = sim.goodput_bps / ana.achievable_bps;
                assert!(
                    (0.50..=1.02).contains(&ratio),
                    "{rate:?}/{}/{len}: sim {:.1} Mb/s vs analytic {:.1} Mb/s",
                    partition.name,
                    sim.goodput_bps / 1e6,
                    ana.achievable_bps / 1e6
                );
            }
        }
    }
}

#[test]
fn rx_sim_tracks_analysis_for_engine_bound_configs() {
    // All-software receive at OC-12: analysis says the engine bounds
    // goodput near mips/instr-per-cell; the sim's delivered goodput must
    // land in the same regime (it also loses cells, so ≤).
    let partition = HwPartition::all_software();
    let len = 9180;
    let ana = predict_rx(
        len,
        &partition,
        25.0,
        &hni_core::bus::BusConfig::default(),
        LineRate::Oc12,
        AalType::Aal5,
    );
    assert_eq!(ana.bottleneck, "engine");

    let mut cfg = RxConfig::paper(LineRate::Oc12);
    cfg.partition = partition;
    // Offer at half the engine-bound rate: no loss expected, goodput =
    // offered.
    let offered_fraction = 0.5 * ana.achievable_bps / LineRate::Oc12.payload_bps();
    let wl = RxWorkload::uniform(
        LineRate::Oc12,
        AalType::Aal5,
        2,
        10,
        len,
        offered_fraction.min(1.0),
    );
    let r = run_rx(&cfg, &wl);
    assert_eq!(r.failed_packets, 0, "below the engine bound nothing drops");
    // Offer at full line rate: the sim must not exceed the analytic
    // engine bound by more than per-packet accounting slack.
    let wl_full = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 2, 10, len, 1.0);
    let r_full = run_rx(&cfg, &wl_full);
    assert!(
        r_full.goodput_bps < 1.10 * ana.achievable_bps,
        "sim {:.1} vs bound {:.1} Mb/s",
        r_full.goodput_bps / 1e6,
        ana.achievable_bps / 1e6
    );
}

#[test]
fn loss_model_matches_functional_path_grid() {
    // Survival probabilities from the analytic model vs frames pushed
    // through real segmentation/reassembly past a lossy NIC ingress.
    for (loss, len, tol) in [(1e-3, 9180, 0.15), (5e-3, 2048, 0.12)] {
        let model = goodput_under_loss(LineRate::Oc12, AalType::Aal5, len, loss).frame_survival;
        let measured = functional_survival(AalType::Aal5, len, loss, 120, 31);
        assert!(
            (measured - model).abs() < tol,
            "loss {loss} len {len}: measured {measured} vs model {model}"
        );
    }
}

#[test]
fn partition_ordering_consistent_between_methods() {
    // Both methods must rank the partitions identically at OC-12.
    let len = 9180;
    let mut sim_rank = Vec::new();
    let mut ana_rank = Vec::new();
    for partition in [
        HwPartition::all_software(),
        HwPartition::paper_split(),
        HwPartition::full_hardware(),
    ] {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        let sim = run_tx(&cfg, &greedy_workload(15, len, VcId::new(0, 32)));
        let ana = predict_tx(len, &partition, cfg.mips, &cfg.bus, LineRate::Oc12, cfg.aal);
        sim_rank.push((partition.name, sim.goodput_bps));
        ana_rank.push((partition.name, ana.achievable_bps));
    }
    // all-software must be strictly worst in both.
    assert!(sim_rank[0].1 < sim_rank[1].1 && sim_rank[0].1 < sim_rank[2].1);
    assert!(ana_rank[0].1 < ana_rank[1].1 && ana_rank[0].1 < ana_rank[2].1);
}
