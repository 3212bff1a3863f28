//! Property-based tests for the host-interface core.

use hni_aal::aal34::{Aal34Reassembler, Aal34Segmenter};
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_aal::AalType;
use hni_atm::{Cell, HeaderRepr, OamCell, Pti, VcId, CELL_SIZE, PAYLOAD_SIZE};
use hni_core::bufpool::{BufferPool, PoolConfig};
use hni_core::engine::HwPartition;
use hni_core::rxsim::{run_rx, RxConfig, RxWorkload};
use hni_core::txsim::{run_tx, TxConfig, TxPacket};
use hni_core::{DriverConfig, DriverError, HostDriver, Nic, NicConfig, NicEvent, RxPacket};
use hni_sim::link::apply_bit_errors;
use hni_sim::{Duration, Rng, Time};
use hni_sonet::LineRate;
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_partition() -> impl Strategy<Value = HwPartition> {
    prop_oneof![
        Just(HwPartition::all_software()),
        Just(HwPartition::paper_split()),
        Just(HwPartition::full_hardware()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transmit conservation: every offered packet is sent exactly once,
    /// with exactly the AAL's cell count, under any workload/partition.
    #[test]
    fn tx_conservation(
        lens in proptest::collection::vec(0usize..20_000, 1..12),
        partition in arb_partition(),
        n_vcs in 1u16..5,
        pacing in any::<bool>(),
    ) {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        cfg.pacing = pacing;
        let packets: Vec<TxPacket> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| TxPacket {
                vc: VcId::new(0, 32 + (i as u16 % n_vcs)),
                len,
                arrival: Time::from_us(i as u64 * 3),
                pcr: if pacing { Some(200_000.0) } else { None },
            })
            .collect();
        let r = run_tx(&cfg, &packets);
        prop_assert_eq!(r.packets_sent, packets.len() as u64);
        let expected_cells: usize = lens
            .iter()
            .map(|&l| AalType::Aal5.cells_for_sdu(l).max(1))
            .sum();
        prop_assert_eq!(r.cells_sent, expected_cells as u64);
        prop_assert_eq!(r.payload_octets, lens.iter().map(|&l| l as u64).sum::<u64>());
        // Utilizations are sane fractions.
        prop_assert!(r.engine_util >= 0.0 && r.engine_util <= 1.0 + 1e-9);
        prop_assert!(r.link_util >= 0.0 && r.link_util <= 1.0 + 1e-9);
        prop_assert!(r.fifo_peak <= cfg.fifo_cells as u64);
    }

    /// Receive conservation: delivered + failed ≤ offered packets, and
    /// every loss is attributed to a counted cause.
    #[test]
    fn rx_conservation(
        n_vcs in 1usize..8,
        pkts_per_vc in 1usize..6,
        len in 0usize..12_000,
        load in 0.2f64..1.0,
        partition in arb_partition(),
    ) {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, n_vcs, pkts_per_vc, len, load);
        let r = run_rx(&cfg, &wl);
        let offered = (n_vcs * pkts_per_vc) as u64;
        prop_assert!(r.delivered_packets + r.failed_packets <= offered + r.failed_packets);
        prop_assert!(r.delivered_packets <= offered);
        // A packet that is neither delivered nor failed does not exist
        // when no drops occurred.
        if r.dropped_fifo + r.dropped_pool == 0 {
            prop_assert_eq!(r.delivered_packets, offered);
            prop_assert_eq!(r.failed_packets, 0);
        }
        prop_assert_eq!(r.delivered_octets, r.delivered_packets * len as u64);
        prop_assert!(r.fifo_peak <= cfg.fifo_cells as u64);
        prop_assert!(r.pool_peak <= cfg.pool.total_buffers as u64);
    }

    /// Buffer-pool conservation against a reference count, under random
    /// operation sequences.
    #[test]
    fn pool_reference_model(
        total in 1usize..64,
        k in prop_oneof![Just(1usize), Just(8), Just(32)],
        ops in proptest::collection::vec((0u32..8, any::<bool>()), 1..300),
    ) {
        let mut pool = BufferPool::new(PoolConfig { total_buffers: total, cells_per_buffer: k });
        // Reference: per-chain cell counts.
        let mut chains: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (chain, is_append) in ops {
            if is_append {
                let cells = chains.get(&chain).copied().unwrap_or(0);
                let buffers_needed_now = if cells % k == 0 { 1 } else { 0 };
                let in_use: usize = chains.values().map(|&c| c.div_ceil(k)).sum();
                let expect_ok = in_use + buffers_needed_now <= total
                    && (buffers_needed_now == 0 || in_use < total);
                let got = pool.append_cell(Time::ZERO, chain);
                prop_assert_eq!(got.is_ok(), expect_ok, "append chain {}", chain);
                if got.is_ok() {
                    *chains.entry(chain).or_insert(0) += 1;
                }
            } else {
                let expected_freed = chains.remove(&chain).map(|c| c.div_ceil(k)).unwrap_or(0);
                prop_assert_eq!(pool.release_chain(Time::ZERO, chain), expected_freed);
            }
            let in_use: usize = chains.values().map(|&c| c.div_ceil(k)).sum();
            prop_assert_eq!(pool.in_use(), in_use);
            for (&c, &cells) in &chains {
                prop_assert_eq!(pool.cells_of(c), cells);
            }
        }
    }

    /// Determinism under arbitrary workloads: two identical runs give
    /// identical reports.
    #[test]
    fn tx_determinism(lens in proptest::collection::vec(1usize..9000, 1..8)) {
        let cfg = TxConfig::paper(LineRate::Oc3);
        let packets: Vec<TxPacket> = lens
            .iter()
            .map(|&len| TxPacket { vc: VcId::new(0, 32), len, arrival: Time::ZERO, pcr: None })
            .collect();
        let a = run_tx(&cfg, &packets);
        let b = run_tx(&cfg, &packets);
        prop_assert_eq!(a.finished_at, b.finished_at);
        prop_assert_eq!(a.engine_busy, b.engine_busy);
        prop_assert_eq!(a.cells_sent, b.cells_sent);
    }

    /// Goodput never exceeds the link payload ceiling.
    #[test]
    fn tx_never_beats_the_link(lens in proptest::collection::vec(1usize..30_000, 1..10)) {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let packets: Vec<TxPacket> = lens
            .iter()
            .map(|&len| TxPacket { vc: VcId::new(0, 32), len, arrival: Time::ZERO, pcr: None })
            .collect();
        let r = run_tx(&cfg, &packets);
        prop_assert!(r.goodput_bps <= LineRate::Oc12.payload_bps() * (48.0 / 53.0) + 1.0);
    }

    /// A paced VC's inter-departure gaps never violate its PCR by more
    /// than one slot of rounding.
    #[test]
    fn pacing_never_violates_pcr(pcr_kcells in 10u64..500, len in 480usize..5000) {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.pacing = true;
        let pcr = pcr_kcells as f64 * 1000.0;
        let packets = vec![TxPacket {
            vc: VcId::new(0, 40),
            len,
            arrival: Time::ZERO,
            pcr: Some(pcr),
        }];
        let r = run_tx(&cfg, &packets);
        let s = r.interdeparture_us(&packets, VcId::new(0, 40));
        if s.count() > 0 {
            let min_gap_us = 1e6 / pcr;
            let slot_us = Duration::from_ps(707_799).as_us_f64();
            prop_assert!(
                s.min() + slot_us + 0.01 >= min_gap_us,
                "min gap {} vs contract {}",
                s.min(),
                min_gap_us
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end composition conserves packets below saturation and
    /// never invents latency smaller than propagation.
    #[test]
    fn e2e_conservation(
        lens in proptest::collection::vec(1usize..9000, 1..8),
        prop_us in 1u64..1000,
    ) {
        use hni_core::e2esim::run_e2e;
        use hni_core::rxsim::RxConfig;
        let txc = TxConfig::paper(LineRate::Oc12);
        let rxc = RxConfig::paper(LineRate::Oc12);
        let packets: Vec<TxPacket> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| TxPacket {
                vc: VcId::new(0, 32 + (i % 3) as u16),
                len,
                arrival: Time::from_us(i as u64 * 11),
                pcr: None,
            })
            .collect();
        let propagation = Duration::from_us(prop_us);
        let r = run_e2e(&txc, &rxc, &packets, propagation);
        prop_assert_eq!(r.delivered, packets.len() as u64);
        prop_assert_eq!(r.latency_hist.count(), packets.len() as u64);
        prop_assert!(
            r.latency_hist.min() >= propagation.as_ps(),
            "latency {} ps < propagation {} ps",
            r.latency_hist.min(),
            propagation.as_ps()
        );
    }
}

fn random_bytes(rng: &mut Rng, n: u64) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// One `Nic` sends SDUs and OAM loopbacks on five VCs, one of them
/// unknown to the receiver. Each of its frames is left clean or
/// damaged — bit flips, truncation, appended junk or a whole random
/// frame — and fed to a second `Nic` in ragged chunks, every event
/// polled. Returns the SDUs delivered.
fn damaged_line_into_nic(rng: &mut Rng, aal: AalType, rate: LineRate, frames: usize) -> u64 {
    let mut cfg = NicConfig::paper(rate);
    cfg.aal = aal;
    // Short enough that stranded partial frames expire within the run.
    cfg.reassembly_timeout = Duration::from_us(500);
    let mut tx = Nic::new(cfg.clone());
    let mut rx = Nic::new(cfg);
    for vci in 32..37 {
        tx.open_vc(VcId::new(0, vci)).unwrap();
    }
    for vci in 32..36 {
        rx.open_vc(VcId::new(0, vci)).unwrap();
    }
    let mut now = Time::ZERO;
    // Clean idle frames first, so the damage reaches a receiver that
    // is in frame and cell sync.
    for _ in 0..4 {
        rx.receive_line_octets(&tx.frame_tick(), now);
    }
    for _ in 0..frames {
        while tx.tx_backlog_cells() < 200 {
            let vc = VcId::new(0, 32 + rng.below(5) as u16);
            if rng.chance(0.1) {
                tx.send_oam_loopback(vc, rng.next_u64() as u32).unwrap();
            } else {
                let len = rng.below(3_000);
                tx.send(vc, random_bytes(rng, len), now).unwrap();
            }
        }
        let mut line = tx.frame_tick();
        match rng.below(8) {
            0..=3 => {}
            4 => {
                let bits: Vec<u64> = (0..=rng.below(8))
                    .map(|_| rng.below(line.len() as u64 * 8))
                    .collect();
                apply_bit_errors(&mut line, &bits);
            }
            5 => line.truncate(rng.below(line.len() as u64) as usize),
            6 => {
                let junk = 1 + rng.below(500);
                line.extend(random_bytes(rng, junk));
            }
            _ => line = random_bytes(rng, line.len() as u64),
        }
        let mut rest = &line[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at((1 + rng.below(1_500) as usize).min(rest.len()));
            rx.receive_line_octets(chunk, now);
            while let Some(ev) = rx.poll() {
                if let NicEvent::PacketReceived { data, .. } = ev {
                    rx.recycle_sdu_buffer(data);
                }
            }
            rest = tail;
        }
        now += Duration::from_us(125);
    }
    rx.expire(now + Duration::from_s(1));
    while rx.poll().is_some() {}
    rx.sdus_received()
}

/// `n` cells, nine in ten on three VCs, into both reassemblers and the
/// OAM codec. The stream mixes segmented frames of either AAL (with
/// lost, duplicated and bit-flipped cells), OAM loopback cells, valid
/// headers of any payload type over random payloads, and 53 random
/// octets, with some neighbours swapped.
fn arbitrary_cells_into_reassemblers(rng: &mut Rng, n: usize) {
    let max_sdu = if rng.chance(0.5) {
        65_535
    } else {
        1 + rng.below(2_000) as usize
    };
    let timeout = Duration::from_us(1 + rng.below(1_000));
    let mut r5 = Aal5Reassembler::new(max_sdu, timeout);
    let mut r34 = Aal34Reassembler::new(max_sdu, timeout);
    let mut seg34 = Aal34Segmenter::new();
    let mut cells: Vec<Cell> = Vec::with_capacity(n);
    while cells.len() < n {
        let vc = if rng.chance(0.9) {
            VcId::new(0, 32 + rng.below(3) as u16)
        } else {
            VcId::new(rng.below(256) as u16, rng.below(65_536) as u16)
        };
        match rng.below(4) {
            0 => {
                let len = rng.below(3_000);
                let sdu = random_bytes(rng, len);
                let frame = if rng.chance(0.5) {
                    aal5::segment(vc, &sdu, 0)
                } else {
                    seg34.segment(vc, rng.below(4) as u16, &sdu)
                };
                for cell in frame {
                    if rng.chance(0.05) {
                        continue;
                    }
                    let mut bytes = *cell.as_bytes();
                    if rng.chance(0.05) {
                        apply_bit_errors(&mut bytes, &[rng.below(CELL_SIZE as u64 * 8)]);
                    }
                    cells.push(Cell::from_bytes(bytes));
                    if rng.chance(0.02) {
                        cells.push(Cell::from_bytes(bytes));
                    }
                }
            }
            1 => cells.push(OamCell::loopback_request(rng.next_u64() as u32).emit(vc)),
            2 => {
                let header = HeaderRepr {
                    pti: Pti::from_bits(rng.below(8) as u8),
                    ..HeaderRepr::data(vc, false)
                };
                let payload: [u8; PAYLOAD_SIZE] =
                    random_bytes(rng, PAYLOAD_SIZE as u64).try_into().unwrap();
                cells.push(Cell::new(&header, &payload).unwrap());
            }
            _ => cells.push(Cell::from_bytes(
                random_bytes(rng, CELL_SIZE as u64).try_into().unwrap(),
            )),
        }
    }
    for i in 1..cells.len() {
        if rng.chance(0.02) {
            cells.swap(i - 1, i);
        }
    }
    let mut now = Time::ZERO;
    for cell in &cells {
        if let Some(Ok(sdu)) = r5.push(cell, now) {
            r5.recycle(sdu.data);
        }
        let _ = r34.push(cell, now);
        let _ = OamCell::parse(cell);
        now += Duration::from_ns(rng.below(5_000));
        if rng.chance(0.01) {
            r5.expire(now);
            r34.expire(now);
        }
    }
    r5.expire(now + Duration::from_s(1));
    r34.expire(now + Duration::from_s(1));
}

proptest! {
    // Sized to run in about 2 s in the debug test profile.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Wire-facing entry points never panic: damaged line octets into
    /// `Nic::receive_line_octets` for both AALs at OC-3 and OC-12, and
    /// arbitrary cells into both reassemblers and `OamCell::parse`.
    #[test]
    fn wire_facing_entry_points_never_panic(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut delivered = 0;
        for aal in [AalType::Aal5, AalType::Aal34] {
            for rate in [LineRate::Oc3, LineRate::Oc12] {
                delivered += damaged_line_into_nic(&mut rng, aal, rate, 16);
            }
        }
        // Some SDUs survived, so the line reached reassembly.
        prop_assert!(delivered > 0);
        arbitrary_cells_into_reassemblers(&mut rng, 5_000);
    }
}

/// The transmit ring as a newest-first walk: the backlog is charged to
/// the newest descriptors first, and each descriptor it no longer
/// reaches is complete. `ring` holds cells per descriptor, oldest first.
fn newest_first_walk(ring: &mut VecDeque<usize>, backlog: usize) {
    let mut left = backlog;
    let mut kept = VecDeque::new();
    while let Some(cells) = ring.pop_back() {
        if left > 0 {
            left -= left.min(cells);
            kept.push_front(cells);
        }
    }
    *ring = kept;
}

/// The receive side as two queues: packets waiting for an interrupt,
/// then packets announced and waiting for the application.
#[derive(Default)]
struct RxModel {
    pending: VecDeque<RxPacket>,
    announced: VecDeque<RxPacket>,
    first_pending_at: Option<Time>,
    interrupts: u64,
    drops: u64,
}

impl RxModel {
    fn deliver(&mut self, nic: &mut Nic, cfg: &DriverConfig, now: Time) {
        while let Some(ev) = nic.poll() {
            if let NicEvent::PacketReceived { vc, data, .. } = ev {
                if self.pending.len() + self.announced.len() >= cfg.rx_buffers {
                    self.drops += 1;
                    continue;
                }
                self.first_pending_at.get_or_insert(now);
                self.pending.push_back(RxPacket {
                    vc,
                    data,
                    announced_at: Time::MAX,
                });
            }
        }
        self.interrupt(cfg, now);
    }

    fn interrupt(&mut self, cfg: &DriverConfig, now: Time) {
        let due_count = self.pending.len() >= cfg.coalesce_packets;
        let due_time = matches!(self.first_pending_at,
            Some(t0) if now.saturating_since(t0) >= cfg.coalesce_delay);
        if !self.pending.is_empty() && (due_count || due_time) {
            self.interrupts += 1;
            while let Some(mut p) = self.pending.pop_front() {
                p.announced_at = now;
                self.announced.push_back(p);
            }
            self.first_pending_at = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The driver's rings decide as the newest-first walk and the
    /// two-queue receive side do, under random interleavings of SDU
    /// sends on four VCs, raw and OAM cells that hold no descriptor,
    /// frame ticks and application reads: the same descriptors in
    /// flight and `TxRingFull` decisions after every call, and the same
    /// packets, announcement times, interrupts and host drops.
    #[test]
    fn driver_rings_match_the_reference_driver(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let tx_cfg = DriverConfig {
            tx_ring: 1 + rng.below(64) as usize,
            ..DriverConfig::default()
        };
        let rx_cfg = DriverConfig {
            rx_buffers: 1 + rng.below(16) as usize,
            coalesce_packets: 1 + rng.below(8) as usize,
            coalesce_delay: Duration::from_us(rng.below(1_000)),
            ..DriverConfig::default()
        };
        let ncfg = NicConfig::paper(LineRate::Oc3);
        let mut a = HostDriver::new(Nic::new(ncfg.clone()), tx_cfg);
        let mut b = HostDriver::new(Nic::new(ncfg.clone()), rx_cfg);
        // A bare `Nic` on the same line shows the events b's driver takes.
        let mut mirror = Nic::new(ncfg);
        let vcs: Vec<VcId> = (32..36).map(|vci| VcId::new(0, vci)).collect();
        for &vc in &vcs {
            a.nic_mut().open_vc(vc).unwrap();
            b.nic_mut().open_vc(vc).unwrap();
            mirror.open_vc(vc).unwrap();
        }
        let mut ring = VecDeque::new();
        let mut rx = RxModel::default();
        let mut now = Time::ZERO;
        for _ in 0..400 {
            let vc = vcs[rng.below(4) as usize];
            match rng.below(10) {
                0..=3 => {
                    let most = if rng.chance(0.5) { 12 } else { 200 };
                    let cells = 1 + rng.below(most) as usize;
                    let len = (48 * cells - 8).saturating_sub(rng.below(48) as usize);
                    prop_assert_eq!(AalType::Aal5.cells_for_sdu(len), cells);
                    let backlog = a.nic().tx_backlog_cells();
                    newest_first_walk(&mut ring, backlog);
                    match a.send(vc, vec![cells as u8; len], now) {
                        Ok(()) => {
                            prop_assert!(ring.len() < tx_cfg.tx_ring);
                            prop_assert_eq!(a.nic().tx_backlog_cells(), backlog + cells);
                            ring.push_back(cells);
                        }
                        Err(e) => {
                            prop_assert_eq!(e, DriverError::TxRingFull);
                            prop_assert_eq!(ring.len(), tx_cfg.tx_ring);
                        }
                    }
                }
                4 => {
                    let header = HeaderRepr::data(vc, rng.chance(0.5));
                    a.nic_mut()
                        .inject_cell(&Cell::new(&header, &[7; PAYLOAD_SIZE]).unwrap());
                }
                5 => a.nic_mut().send_oam_loopback(vc, rng.next_u64() as u32).unwrap(),
                6 => {
                    for _ in 0..rng.below(4) {
                        prop_assert_eq!(b.poll_rx(), rx.announced.pop_front());
                    }
                }
                _ => {
                    let frame = a.frame_tick(now);
                    newest_first_walk(&mut ring, a.nic().tx_backlog_cells());
                    let _ = b.frame_tick(now);
                    rx.interrupt(&rx_cfg, now);
                    b.receive_line_octets(&frame, now);
                    mirror.receive_line_octets(&frame, now);
                    rx.deliver(&mut mirror, &rx_cfg, now);
                    now += Duration::from_us(125);
                }
            }
            prop_assert_eq!(a.tx_in_flight(), ring.len());
            prop_assert_eq!(b.interrupts(), rx.interrupts);
            prop_assert_eq!(b.host_drops(), rx.drops);
        }
        // Some packets made it through b's driver to the application.
        prop_assert!(b.interrupts() > 0);
        while let Some(p) = rx.announced.pop_front() {
            prop_assert_eq!(b.poll_rx(), Some(p));
        }
        prop_assert_eq!(b.poll_rx(), None);
    }
}
