//! Cohort critical-path attribution: *why* is the tail slow?
//!
//! The histogram says p99 regressed; one packet's span breakdown
//! explains that packet.
//! This module closes the gap between them. From a [`PacketSpans`]
//! index it forms two cohorts of completed packets —
//!
//! * **tail**: total latency at or above the exact p99 of the indexed
//!   totals (nearest-rank, always ≥ 1 packet), and
//! * **median**: total latency at or below the exact p50 —
//!
//! then compares the cohorts' mean time per *(stage, wait|service)*
//! slot. The per-slot difference is that slot's **excess**; dividing by
//! the cohorts' total-latency difference gives each slot's **share** of
//! the tail's excess. Shares sum to 1 by construction (the spans
//! telescope), so the table reads as a complete blame decomposition:
//! "p99 excess is 71% wait at rx cell" names the reassembler queue.
//!
//! Cohorts here are exact order statistics over retained totals — not
//! `Histogram` buckets, whose log2 quantization can misplace packets
//! near a cohort edge by up to 2×. The histogram threshold is only
//! used by `report exemplars`, whose p99+ cohort is the part of a
//! deterministic identity sample at or above the end-to-end
//! histogram's p99 bound.

use crate::spans::{PacketSpans, STAGE_LABELS};
use hni_sim::Duration;
use std::fmt::Write as _;

const PS_PER_US: f64 = 1e6;

/// One *(stage, part)* slot's contribution to the tail's excess.
#[derive(Clone, Copy, Debug)]
pub struct StageShare {
    /// Stage label (matches the R-F3 waterfall columns).
    pub label: &'static str,
    /// `"wait"` (queued before the engine) or `"service"` (worked on).
    pub part: &'static str,
    /// Mean time in this slot across the median cohort, µs.
    pub median_us: f64,
    /// Mean time in this slot across the tail cohort, µs.
    pub tail_us: f64,
    /// `tail_us − median_us` (may be negative), µs.
    pub excess_us: f64,
    /// Fraction of the total tail excess this slot explains.
    pub share: f64,
}

/// The tail-vs-median blame table for one traced run.
#[derive(Clone, Debug)]
pub struct TailAttribution {
    /// Completed packets the cohorts were drawn from.
    pub packets: usize,
    /// Packets in the tail (≥ p99) cohort.
    pub tail_count: usize,
    /// Packets in the median (≤ p50) cohort.
    pub median_count: usize,
    /// Exact p99 total-latency threshold defining the tail cohort.
    pub tail_threshold: Duration,
    /// Mean total latency of the median cohort, µs.
    pub median_total_us: f64,
    /// Mean total latency of the tail cohort, µs.
    pub tail_total_us: f64,
    /// Per-slot decomposition, largest excess first.
    pub rows: Vec<StageShare>,
}

/// Attribute the p99-vs-median latency excess to pipeline slots.
///
/// Returns `None` when fewer than two packets completed or the tail
/// cohort is no slower than the median cohort (nothing to attribute).
pub fn attribute_tail(spans: &PacketSpans) -> Option<TailAttribution> {
    let mut totals: Vec<(u64, u32)> = spans
        .packets()
        .filter_map(|p| Some((spans.life(p)?.total()?.as_ps(), p)))
        .collect();
    if totals.len() < 2 {
        return None;
    }
    totals.sort_unstable();
    let p50 = nearest_rank(&totals, 0.50);
    let p99 = nearest_rank(&totals, 0.99);

    let mut tail = Cohort::default();
    let mut median = Cohort::default();
    for &(total, pkt) in &totals {
        let life = spans.life(pkt).expect("indexed above");
        if total >= p99 {
            tail.absorb(total, life.breakdown());
        }
        if total <= p50 {
            median.absorb(total, life.breakdown());
        }
    }
    let total_excess_us = tail.mean_total_us() - median.mean_total_us();
    // Strictly-positive gate that also rejects NaN (empty cohorts).
    if total_excess_us.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None;
    }

    let mut rows = Vec::with_capacity(STAGE_LABELS.len() * 2);
    for (i, label) in STAGE_LABELS.iter().enumerate() {
        for (j, part) in ["wait", "service"].iter().enumerate() {
            let median_us = median.mean_slot_us(i, j);
            let tail_us = tail.mean_slot_us(i, j);
            let excess_us = tail_us - median_us;
            rows.push(StageShare {
                label,
                part,
                median_us,
                tail_us,
                excess_us,
                share: excess_us / total_excess_us,
            });
        }
    }
    rows.sort_by(|a, b| b.excess_us.total_cmp(&a.excess_us));
    Some(TailAttribution {
        packets: totals.len(),
        tail_count: tail.count,
        median_count: median.count,
        tail_threshold: Duration::from_ps(p99),
        median_total_us: median.mean_total_us(),
        tail_total_us: tail.mean_total_us(),
        rows,
    })
}

impl TailAttribution {
    /// The slot explaining the largest share of the tail's excess.
    pub fn blamed(&self) -> &StageShare {
        &self.rows[0]
    }

    /// One-line verdict: `p99 excess is 71% wait at rx cell`.
    pub fn headline(&self) -> String {
        let b = self.blamed();
        format!(
            "p99 excess is {:.0}% {} at {}",
            b.share * 100.0,
            b.part,
            b.label
        )
    }

    /// Text rendering: headline, cohort summary, and the blame table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headline());
        let _ = writeln!(
            out,
            "cohorts: tail {} pkts (>= {:.3} us) vs median {} pkts, of {} completed",
            self.tail_count,
            self.tail_threshold.as_us_f64(),
            self.median_count,
            self.packets
        );
        let _ = writeln!(
            out,
            "mean total: tail {:.3} us, median {:.3} us, excess {:.3} us",
            self.tail_total_us,
            self.median_total_us,
            self.tail_total_us - self.median_total_us
        );
        let _ = writeln!(
            out,
            "  {:<12} {:<8} {:>11} {:>11} {:>11} {:>7}",
            "stage", "part", "median us", "tail us", "excess us", "share"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<12} {:<8} {:>11.3} {:>11.3} {:>11.3} {:>6.1}%",
                r.label,
                r.part,
                r.median_us,
                r.tail_us,
                r.excess_us,
                r.share * 100.0
            );
        }
        out
    }

    /// Prometheus exposition of the decomposition: per-slot shares and
    /// cohort means as gauge families (passes `expfmt::validate`).
    pub fn prom(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP hni_tail_stage_share Share of the p99-vs-median latency \
             excess attributed to each stage part.\n\
             # TYPE hni_tail_stage_share gauge\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "hni_tail_stage_share{{stage=\"{}\",part=\"{}\"}} {:.6}",
                r.label, r.part, r.share
            );
        }
        out.push_str(
            "# HELP hni_tail_cohort_mean_us Mean total latency per cohort in \
             microseconds.\n\
             # TYPE hni_tail_cohort_mean_us gauge\n",
        );
        let _ = writeln!(
            out,
            "hni_tail_cohort_mean_us{{cohort=\"tail\"}} {:.6}",
            self.tail_total_us
        );
        let _ = writeln!(
            out,
            "hni_tail_cohort_mean_us{{cohort=\"median\"}} {:.6}",
            self.median_total_us
        );
        out
    }
}

/// Per-cohort accumulator: packet count, total-latency sum, and the
/// wait/service sums per stage slot.
#[derive(Default)]
struct Cohort {
    count: usize,
    total_ps: u64,
    slots_ps: [[u64; 2]; STAGE_LABELS.len()],
}

impl Cohort {
    fn absorb(&mut self, total_ps: u64, breakdown: Vec<crate::spans::SpanStage>) {
        self.count += 1;
        self.total_ps += total_ps;
        for (i, s) in breakdown.iter().enumerate() {
            self.slots_ps[i][0] += s.wait.as_ps();
            self.slots_ps[i][1] += s.service.as_ps();
        }
    }

    fn mean_total_us(&self) -> f64 {
        self.total_ps as f64 / self.count.max(1) as f64 / PS_PER_US
    }

    fn mean_slot_us(&self, stage: usize, part: usize) -> f64 {
        self.slots_ps[stage][part] as f64 / self.count.max(1) as f64 / PS_PER_US
    }
}

/// Nearest-rank quantile over ascending `(total, pkt)` pairs.
fn nearest_rank(sorted: &[(u64, u32)], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, Stage, TraceEvent, NO_ID};
    use hni_sim::Time;

    /// A packet life whose "rx cell" stage carries `rx_wait_ns` of
    /// queue-wait; everything else is constant across packets.
    fn life(pkt: u32, base_ns: u64, rx_wait_ns: u64) -> Vec<TraceEvent> {
        let e = |ns: u64, st, ph| TraceEvent {
            time: Time::from_ns(ns),
            stage: st,
            phase: ph,
            vc: 64,
            pkt,
            cell: NO_ID,
            arg: 0,
        };
        let b = base_ns;
        let arrive = b + 2_000;
        let enter = arrive + rx_wait_ns;
        vec![
            e(b, Stage::TxDescriptor, Phase::Instant),
            e(b, Stage::TxSetup, Phase::Enter),
            e(b + 100, Stage::TxSetup, Phase::Exit),
            e(b + 200, Stage::TxDmaBurst, Phase::Instant),
            e(b + 250, Stage::TxSegment, Phase::Enter),
            e(b + 300, Stage::TxSegment, Phase::Exit),
            e(b + 1_000, Stage::TxFramer, Phase::Instant),
            e(arrive, Stage::RxCellArrive, Phase::Instant),
            e(enter, Stage::RxCell, Phase::Enter),
            e(enter + 50, Stage::RxCell, Phase::Exit),
            e(enter + 60, Stage::RxValidate, Phase::Enter),
            e(enter + 100, Stage::RxValidate, Phase::Exit),
            e(enter + 200, Stage::RxDmaBurst, Phase::Instant),
            e(enter + 210, Stage::RxComplete, Phase::Enter),
            e(enter + 250, Stage::RxComplete, Phase::Exit),
        ]
    }

    fn spans_with_tail(rx_waits_ns: &[u64]) -> PacketSpans {
        let mut ev = Vec::new();
        for (i, &w) in rx_waits_ns.iter().enumerate() {
            ev.extend(life(i as u32, i as u64 * 100_000, w));
        }
        PacketSpans::from_events(&ev)
    }

    #[test]
    fn blames_the_injected_rx_queue_wait() {
        // 19 fast packets, one with 40 µs of reassembler queue-wait.
        let mut waits = vec![10u64; 19];
        waits.push(40_000);
        let attr = attribute_tail(&spans_with_tail(&waits)).expect("attributable");
        let b = attr.blamed();
        assert_eq!(b.label, "rx cell");
        assert_eq!(b.part, "wait");
        assert!(b.share > 0.95, "share {} should dominate", b.share);
        assert_eq!(attr.tail_count, 1);
        assert!(attr.headline().contains("wait at rx cell"));
        // Shares telescope: the full table sums to ~1.
        let sum: f64 = attr.rows.iter().map(|r| r.share).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }

    #[test]
    fn uniform_latency_is_unattributable() {
        let attr = attribute_tail(&spans_with_tail(&[10; 8]));
        assert!(attr.is_none(), "no excess to attribute");
        assert!(attribute_tail(&spans_with_tail(&[10])).is_none());
        assert!(attribute_tail(&PacketSpans::from_events(&[])).is_none());
    }

    #[test]
    fn render_and_prom_are_well_formed() {
        let mut waits = vec![10u64; 10];
        waits.push(20_000);
        let attr = attribute_tail(&spans_with_tail(&waits)).unwrap();
        let text = attr.render();
        assert!(text.contains("cohorts:"));
        assert!(text.contains("rx cell"));
        let prom = attr.prom();
        crate::expfmt::validate(&prom).expect("prom output must lint clean");
        assert!(prom.contains("hni_tail_stage_share{stage=\"rx cell\",part=\"wait\"}"));
        assert!(prom.contains("hni_tail_cohort_mean_us{cohort=\"tail\"}"));
    }

    #[test]
    fn incomplete_lives_are_excluded_from_cohorts() {
        let mut waits = vec![10u64; 10];
        waits.push(20_000);
        let mut ev = Vec::new();
        for (i, &w) in waits.iter().enumerate() {
            ev.extend(life(i as u32, i as u64 * 100_000, w));
        }
        // A dropped packet: tx-side events only.
        ev.extend(
            life(99, 5_000_000, 10)
                .into_iter()
                .filter(|e| matches!(e.stage, Stage::TxDescriptor | Stage::TxSetup)),
        );
        let attr = attribute_tail(&PacketSpans::from_events(&ev)).unwrap();
        assert_eq!(attr.packets, 11, "dropped packet not in cohorts");
    }
}
