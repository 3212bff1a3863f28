//! Golden guarantees for the perf work: the fast paths may be faster,
//! but they must be *invisible* — same bytes, same reports, no
//! steady-state allocation.
//!
//! 1. The slab segmentation path emits byte-identical cells to the
//!    allocating `Vec<Cell>` path, for AAL5 and AAL3/4 alike.
//! 2. `par_sweep` produces byte-identical results at every worker
//!    count — the parallel report is the serial report.
//! 3. The steady-state segmentation → link → reassembly loop performs
//!    zero heap allocations and zero slab growth after warm-up,
//!    proven by a counting global allocator.
//!
//! The allocation counter (`support/alloc_counter.rs`) is
//! thread-filtered, so the other tests in this binary — which allocate
//! freely on their own harness threads — cannot pollute the zero-alloc
//! window.

use hni_aal::aal34::Aal34Segmenter;
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_atm::{CellSlab, VcId};
use hni_bench::experiments::{rf1_tx_throughput, rt3_memory, rt4_pacing};
use hni_bench::{par_sweep_with_jobs, Run};
use hni_core::TxReport;
use hni_sim::{Duration, FaultPlan, Link, LinkDelivery, Rng, Time};
use hni_telemetry::{NullProfiler, NullTracer};

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocs_during;

#[test]
fn slab_fast_path_byte_identical_to_vec_path() {
    let vc = VcId::new(0, 77);
    let sizes = [1usize, 40, 48, 49, 96, 1500, 9180, 65_000];

    // AAL5: free function, stateless across frames.
    for &len in &sizes {
        let sdu: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
        let vec_cells = aal5::segment(vc, &sdu, 0);
        let mut slab = CellSlab::new();
        let mut refs = Vec::new();
        aal5::segment_into(vc, &sdu, 0, &mut slab, &mut refs);
        assert_eq!(vec_cells.len(), refs.len(), "len {len}");
        for (cell, &r) in vec_cells.iter().zip(&refs) {
            assert_eq!(cell.as_bytes(), slab.get(r).as_bytes(), "len {len}");
        }
    }

    // AAL3/4: the segmenter carries SN/BTag state, so drive two fresh
    // segmenters through the same SDU sequence and diff every cell.
    let mut vec_seg = Aal34Segmenter::new();
    let mut slab_seg = Aal34Segmenter::new();
    let mut slab = CellSlab::new();
    for &len in &sizes {
        let sdu: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
        let vec_cells = vec_seg.segment(vc, 5, &sdu);
        let mut refs = Vec::new();
        slab_seg.segment_into(vc, 5, &sdu, &mut slab, &mut refs);
        assert_eq!(vec_cells.len(), refs.len(), "len {len}");
        for (cell, &r) in vec_cells.iter().zip(&refs) {
            assert_eq!(cell.as_bytes(), slab.get(r).as_bytes(), "len {len}");
        }
        slab.free_all(&refs);
    }
}

/// Render R-F1 sweep points to a canonical string (full float precision
/// via `{:?}` — any drift at all must show).
fn rf1_fingerprint(points: &[rf1_tx_throughput::Point]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{:?}|{}\n",
                p.rate, p.partition, p.len, p.sim_bps, p.analytic_bps, p.bubble_bps, p.bottleneck
            )
        })
        .collect()
}

#[test]
fn par_sweep_byte_identical_across_worker_counts() {
    // The R-F1 grid through its own jobs-parameterised entry point.
    let serial = rf1_fingerprint(&rf1_tx_throughput::sweep_with_jobs(4, 1));
    for jobs in 2..=4 {
        let par = rf1_fingerprint(&rf1_tx_throughput::sweep_with_jobs(4, jobs));
        assert_eq!(serial, par, "r-f1 sweep diverged at jobs={jobs}");
    }

    // The R-T3 measured-occupancy grid through the generic runner.
    let grid = [(1usize, 1usize), (1, 32), (16, 1), (16, 32)];
    let serial = par_sweep_with_jobs(1, &grid, |&(n, k)| rt3_memory::measured_peak(n, k));
    for jobs in 2..=4 {
        let par = par_sweep_with_jobs(jobs, &grid, |&(n, k)| rt3_memory::measured_peak(n, k));
        assert_eq!(serial, par, "r-t3 grid diverged at jobs={jobs}");
    }

    // The R-T4 pacing pair: float-exact across worker counts.
    let fp = |jobs| {
        par_sweep_with_jobs(jobs, &[false, true], |&pacing| rt4_pacing::measure(pacing))
            .iter()
            .map(|p| {
                format!(
                    "{}|{:?}|{:?}|{:?}\n",
                    p.pacing, p.mean_us, p.sd_us, p.max_us
                )
            })
            .collect::<String>()
    };
    let serial = fp(1);
    for jobs in 2..=4 {
        assert_eq!(serial, fp(jobs), "r-t4 diverged at jobs={jobs}");
    }
}

#[test]
fn telemetry_plane_zero_alloc_in_steady_state() {
    use hni_telemetry::{HdrHist, SamplingTracer, Stage, TopK, TraceEvent, Tracer, VcMetrics};

    // Histogram: record + quantile + merge never touch the heap (the
    // 64 buckets are inline arrays).
    let mut h = HdrHist::new();
    let mut h2 = HdrHist::new();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            h.record(i * 37 + 1);
            h2.record(i * 91 + 5);
        }
        h.merge(&h2);
        std::hint::black_box(h.quantile(0.99));
        std::hint::black_box(h.pcts());
    });
    assert_eq!(n, 0, "HdrHist allocated {n} times in steady state");

    // Per-VC metrics: the top-K table is sized once at construction;
    // offers — hits, misses, and space-saving evictions alike — are
    // in-place.
    let mut m = VcMetrics::default();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            m.record_cell((i % 4096) as u32, 53);
        }
    });
    assert_eq!(n, 0, "VcMetrics allocated {n} times in steady state");
    let mut k = TopK::new(8);
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            k.offer((i % 100) as u32, 1);
        }
    });
    assert_eq!(n, 0, "TopK allocated {n} times under eviction churn");

    // Sampling decisions are pure hashing; a kept event through the
    // NullTracer sink costs nothing either.
    let mut s = SamplingTracer::new(NullTracer, 1024, 42);
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u32 {
            std::hint::black_box(s.keeps(i % 7, i / 13, i));
            s.record(TraceEvent::instant(Time::ZERO, Stage::TxSetup).pkt(i as usize));
        }
    });
    assert_eq!(n, 0, "SamplingTracer allocated {n} times in steady state");
}

/// R-F1's declared canonical run, unprobed.
fn rf1_canonical() -> TxReport {
    match rf1_tx_throughput::canonical_run(&mut NullTracer, &mut NullProfiler) {
        Run::Tx(r) => r,
        _ => panic!("R-F1 declares a transmit run"),
    }
}

#[test]
fn always_on_metrics_do_not_perturb_the_simulation() {
    // The telemetry plane is observational: every pre-existing report
    // field must be exactly what it was before the histograms and VC
    // counters rode along. Two identical runs agree trivially — the
    // real check is that the metrics-carrying report still satisfies
    // the cross-invariants the seed established.
    let r = rf1_canonical();
    assert_eq!(
        r.latency_hist.count() as usize,
        20,
        "one histogram sample per completed packet"
    );
    assert_eq!(
        r.vc_cells.shards.total_cells(),
        r.cells_sent,
        "per-VC cell accounting must agree with the simulator's own count"
    );
    assert!(
        (r.latency_hist.mean() / 1e6 - r.packet_latency_us.mean()).abs()
            / r.packet_latency_us.mean()
            < 0.01,
        "histogram mean {} µs vs summary mean {} µs",
        r.latency_hist.mean() / 1e6,
        r.packet_latency_us.mean()
    );
    // And the histogram itself is recorded outside the event loop's
    // timing: re-running produces float-identical goodput.
    let again = rf1_canonical();
    assert_eq!(r.goodput_bps.to_bits(), again.goodput_bps.to_bits());
    assert_eq!(r.cells_sent, again.cells_sent);
}

#[test]
fn steady_state_e2e_zero_allocations_zero_slab_growth() {
    let vc = VcId::new(0, 32);
    let n_sdus = 4usize;
    let len = 9180usize;
    let cells_per_sdu = hni_aal::AalType::Aal5.cells_for_sdu(len);
    let burst_cells = n_sdus * cells_per_sdu;

    let sdu: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    let sdus: Vec<&[u8]> = (0..n_sdus).map(|_| sdu.as_slice()).collect();

    let mut slab = CellSlab::with_capacity(burst_cells);
    let mut refs: Vec<_> = Vec::with_capacity(burst_cells);
    let mut deliveries: Vec<LinkDelivery> = Vec::with_capacity(burst_cells);
    let mut done = Vec::with_capacity(n_sdus);
    let mut reasm = Aal5Reassembler::new(65_535, Duration::from_ms(100));
    let mut link = Link::new(622e6, Duration::from_us(10), FaultPlan::NONE, Rng::new(1));

    let round = |slab: &mut CellSlab,
                 refs: &mut Vec<hni_atm::CellRef>,
                 deliveries: &mut Vec<LinkDelivery>,
                 done: &mut Vec<_>,
                 reasm: &mut Aal5Reassembler,
                 link: &mut Link| {
        refs.clear();
        aal5::segment_burst(vc, &sdus, 0, slab, refs);
        deliveries.clear();
        link.send_burst(Time::ZERO, 424, refs.len(), deliveries);
        done.clear();
        reasm.deliver_burst(refs, slab, Time::ZERO, done);
        slab.free_all(refs);
        let mut delivered = 0;
        for r in done.drain(..) {
            let sdu = r.expect("clean path reassembles");
            delivered += 1;
            reasm.recycle(sdu.data);
        }
        delivered
    };

    // Warm-up: fills the slab free list, the reassembler's spare-buffer
    // pool, the link delivery vec and every scratch Vec's capacity.
    for _ in 0..3 {
        let d = round(
            &mut slab,
            &mut refs,
            &mut deliveries,
            &mut done,
            &mut reasm,
            &mut link,
        );
        assert_eq!(d, n_sdus);
    }
    let growth_before = slab.growth_events();
    let high_water = slab.high_water();

    // Steady state: many rounds, zero allocations on this thread, zero
    // slab growth.
    let (_, n) = allocs_during(|| {
        for _ in 0..50 {
            let d = round(
                &mut slab,
                &mut refs,
                &mut deliveries,
                &mut done,
                &mut reasm,
                &mut link,
            );
            assert_eq!(d, n_sdus);
        }
    });
    assert_eq!(n, 0, "steady-state e2e allocated {n} times");
    assert_eq!(
        slab.growth_events(),
        growth_before,
        "slab grew after warm-up"
    );
    assert_eq!(slab.high_water(), high_water, "slab high-water moved");
}
