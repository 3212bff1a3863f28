//! # hni-bench — the evaluation harness
//!
//! One module per reconstructed experiment (see DESIGN.md §4 for the
//! index). Each `run()` returns a rendered text table/figure, which the
//! `report` binary prints and perfbench's `sim-report` times.
//!
//! [`EXPERIMENTS`] is the one table of experiments. An experiment that
//! drives a pipeline declares its canonical run there once: a
//! `run_x_full` call over a fixed config, workload and seed, typed by
//! the pipeline it drives ([`Canonical`]). Every `report` capability is
//! derived from that declaration's kind, without running it.
//!
//! ```text
//! cargo run -p hni-bench --bin report --release            # all experiments
//! cargo run -p hni-bench --bin report --release -- r-f1    # one experiment
//! ```

pub mod experiments;
pub mod par_sweep;
pub mod table;

pub use par_sweep::{jobs_from_env, par_sweep, par_sweep_with_jobs};
pub use table::Table;

use experiments::*;
use hni_core::{CellLedger, E2eReport, RxReport, TxReport};
use hni_sim::{Histogram, Time};
use hni_telemetry::{
    CycleProfiler, NullProfiler, NullTracer, Profile, Profiler, TraceEvent, Tracer, VcMetrics,
    VecTracer,
};
use hni_transport::TransportReport;

/// A pipeline run with the caller's probes attached, returning `R`.
type Probed<R> = fn(&mut dyn Tracer, &mut dyn Profiler) -> R;

/// A canonical run declaration: one `run_x_full` call over a fixed
/// config, workload and seed, typed by the pipeline it drives.
#[derive(Clone, Copy)]
pub enum Canonical {
    /// The transmit pipeline (`run_tx_full`).
    Tx(Probed<TxReport>),
    /// The receive pipeline (`run_rx_full`).
    Rx(Probed<RxReport>),
    /// Both halves composed over a fibre (`run_e2e_full`).
    E2e(Probed<E2eReport>),
    /// The closed-loop transport (`run_transport_full`).
    Transport(Probed<TransportReport>),
}

impl Canonical {
    /// The renderings `report` offers for this kind of run, in `report
    /// list` order. The tail attributor needs descriptor → completion
    /// lives, which only a trace through both pipeline halves holds, so
    /// `tail` and `exemplars` are for end-to-end runs alone.
    fn renderings(self) -> &'static [Rendering] {
        match self {
            Canonical::E2e(_) => &RENDERINGS,
            _ => &RENDERINGS[..RENDERINGS.len() - 2],
        }
    }

    /// Run the declaration with the given probes attached.
    fn run(self, tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> Run {
        match self {
            Canonical::Tx(run) => Run::Tx(run(tracer, profiler)),
            Canonical::Rx(run) => Run::Rx(run(tracer, profiler)),
            Canonical::E2e(run) => Run::E2e(run(tracer, profiler)),
            Canonical::Transport(run) => Run::Transport(run(tracer, profiler)),
        }
    }
}

/// One experiment: its report id, the function that renders its
/// tables, and — for an experiment that drives a pipeline — the title
/// and declaration of its canonical run. Closed-form experiments and
/// those that drive single components declare none.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Report id, e.g. `r-f1`.
    pub id: &'static str,
    /// Render the experiment's tables and figures.
    pub run: fn() -> String,
    /// The canonical run's title and declaration.
    pub canonical: Option<(&'static str, Canonical)>,
}

impl Experiment {
    const fn report(id: &'static str, run: fn() -> String) -> Self {
        Experiment {
            id,
            run,
            canonical: None,
        }
    }

    const fn declared(
        id: &'static str,
        run: fn() -> String,
        title: &'static str,
        canonical: Canonical,
    ) -> Self {
        Experiment {
            id,
            run,
            canonical: Some((title, canonical)),
        }
    }
}

/// Every experiment, in report order.
pub const EXPERIMENTS: [Experiment; 20] = [
    Experiment::report("r-t1", rt1_budget::run),
    Experiment::report("r-t2", rt2_partition::run),
    Experiment::report("r-t3", rt3_memory::run),
    Experiment::report("r-t4", rt4_pacing::run),
    Experiment::report("r-t5", rt5_overhead::run),
    Experiment::declared(
        "r-f1",
        rf1_tx_throughput::run,
        "R-F1 canonical transmit run (descriptor -> last cell on line)",
        Canonical::Tx(rf1_tx_throughput::canonical_run),
    ),
    Experiment::declared(
        "r-f2",
        rf2_rx_throughput::run,
        "R-F2 canonical receive run (first cell -> completion)",
        Canonical::Rx(rf2_rx_throughput::canonical_run),
    ),
    Experiment::declared(
        "r-f3",
        rf3_latency::run,
        "R-F3 canonical loaded end-to-end run (descriptor at A -> completion at B)",
        Canonical::E2e(rf3_latency::canonical_run),
    ),
    Experiment::report("r-f4", rf4_host_cpu::run),
    Experiment::report("r-f5", rf5_loss::run),
    Experiment::report("r-f6", rf6_bus::run),
    Experiment::report("r-f7", rf7_delineation::run),
    Experiment::report("r-f8", rf8_congestion::run),
    Experiment::report("r-a1", ra1_fifo_depth::run),
    Experiment::report("r-a2", ra2_mips::run),
    Experiment::report("r-o1", ro1_bottleneck::run),
    Experiment::report("r-o2", ro2_tail::run),
    Experiment::report("r-r1", rr1_discard::run),
    Experiment::declared(
        "r-w1",
        rw1_transport::run,
        "R-W1 canonical closed-loop run (satellite path, 1% loss; \
         first transmission -> unique delivery)",
        Canonical::Transport(rw1_transport::canonical_run),
    ),
    Experiment::report("r-s1", rs1_scale::run),
];

/// All experiment ids, in report order.
pub const EXPERIMENT_IDS: [&str; 20] = {
    let mut ids = [""; 20];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// A canonical run's report, from whichever pipeline ran it, read
/// through the always-on telemetry plane every pipeline carries.
// Variant sizes differ (an end-to-end report holds both halves), but a
// report command builds one run and reads it in place.
#[allow(clippy::large_enum_variant)]
enum Run {
    /// The transmit pipeline (`run_tx_full`).
    Tx(TxReport),
    /// The receive pipeline (`run_rx_full`).
    Rx(RxReport),
    /// Both halves composed over a fibre (`run_e2e_full`).
    E2e(E2eReport),
    /// The closed-loop transport (`run_transport_full`).
    Transport(TransportReport),
}

impl Run {
    /// The run's always-on telemetry plane.
    fn plane(&self) -> Plane<'_> {
        match self {
            Run::Tx(r) => Plane {
                latency: vec![("tx", &r.latency_hist)],
                vc: &r.vc_cells,
                ledger: None,
                end: r.finished_at,
                goodput_bps: r.goodput_bps,
            },
            Run::Rx(r) => Plane {
                latency: vec![("rx", &r.latency_hist)],
                vc: &r.vc_cells,
                ledger: Some(&r.ledger),
                end: r.run_end,
                goodput_bps: r.goodput_bps,
            },
            Run::E2e(r) => Plane {
                latency: vec![
                    ("tx", &r.tx.latency_hist),
                    ("rx", &r.rx.latency_hist),
                    ("e2e", &r.latency_hist),
                ],
                vc: &r.rx.vc_cells,
                ledger: Some(&r.rx.ledger),
                end: r.rx.run_end,
                goodput_bps: r.goodput_bps,
            },
            Run::Transport(r) => Plane {
                latency: vec![("frame", &r.frame_latency)],
                vc: &r.vc_cells,
                ledger: Some(&r.ledger),
                end: r.run_end,
                goodput_bps: r.goodput_bps,
            },
        }
    }
}

/// The always-on telemetry plane of one run: what every pipeline report
/// carries whether or not probes were attached.
struct Plane<'a> {
    /// Latency series as `(stage, histogram)` pairs, the headline last.
    latency: Vec<(&'static str, &'a Histogram)>,
    /// Per-VC cell volume. An end-to-end run reports its receive side,
    /// which saw every surviving cell.
    vc: &'a VcMetrics,
    /// Where every injected cell went. The transmit pipeline keeps no
    /// ledger: nothing is lost before the line.
    ledger: Option<&'a CellLedger>,
    /// End of simulated activity: the span a profile is snapshotted over.
    end: Time,
    /// Goodput, bits/s.
    goodput_bps: f64,
}

/// One rendering of a canonical run: the `report` subcommand and the
/// function that prints it for an id (`None` when the id lacks it).
pub type Rendering = (&'static str, fn(&str) -> Option<String>);

/// Every rendering, in `report list` order; `Canonical::renderings`
/// says which a kind of run offers.
pub const RENDERINGS: [Rendering; 9] = [
    ("trace", |id| {
        Some(hni_telemetry::jsonl::to_jsonl(&trace_experiment(id)?))
    }),
    ("metrics", metrics_experiment),
    ("profile", folded_report),
    ("bottleneck", bottleneck_report),
    ("prom", prom_report),
    ("hist", hist_report),
    ("topvc", topvc_report),
    ("tail", tail_report),
    ("exemplars", exemplars_report),
];

/// Canonicalise a user-typed experiment id: lowercase, and accept the
/// hyphenless shorthand ("RF1", "ro1") for the `r-xN` family.
pub fn normalize_id(id: &str) -> String {
    let id = id.to_lowercase();
    if !id.contains('-') {
        if let Some(rest) = id.strip_prefix('r') {
            if !rest.is_empty() {
                return format!("r-{rest}");
            }
        }
    }
    id
}

fn experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS.into_iter().find(|e| e.id == id)
}

/// Run `id`'s canonical declaration with the given probes attached, if
/// it has one and its kind offers `rendering`. Returns the run's title
/// with the run.
fn canonical(
    id: &str,
    rendering: &str,
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) -> Option<(&'static str, Run)> {
    let (title, declared) = experiment(id)?.canonical?;
    let offered = declared
        .renderings()
        .iter()
        .any(|(name, _)| *name == rendering);
    offered.then(|| (title, declared.run(tracer, profiler)))
}

/// The renderings `id` offers, looked up from its declaration's kind:
/// none without a canonical run. `report diff` and `report promlint`
/// accept exactly the ids this is non-empty for.
pub fn renderings(id: &str) -> Vec<&'static str> {
    let declared = experiment(id).and_then(|e| e.canonical);
    let offered = declared.map_or(&[][..], |(_, run)| run.renderings());
    offered.iter().map(|(name, _)| *name).collect()
}

/// `id`'s line in `report list`: the id, then the renderings it offers.
pub fn list_line(id: &str) -> String {
    let offered = renderings(id);
    if offered.is_empty() {
        id.to_string()
    } else {
        format!("{id}  [{}]", offered.join(" "))
    }
}

/// Cycle-profile `id`'s canonical run for `rendering`. Returns the
/// profile and the run's goodput (the attribution's ceiling numerator).
fn profile_experiment(id: &str, rendering: &str) -> Option<(Profile, f64)> {
    let mut profiler = CycleProfiler::new();
    let (_, run) = canonical(id, rendering, &mut NullTracer, &mut profiler)?;
    let plane = run.plane();
    Some((profiler.snapshot(plane.end), plane.goodput_bps))
}

/// Folded-stack rendering of an experiment's profile (one
/// `component;activity <ns>` line per charged pair — flamegraph food).
pub fn folded_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id, "profile")?;
    Some(profile.folded_stacks())
}

/// Bottleneck-attribution rendering of an experiment's profile: the
/// utilization-ranked resource table plus implied throughput ceilings.
pub fn bottleneck_report(id: &str) -> Option<String> {
    let (profile, goodput) = profile_experiment(id, "bottleneck")?;
    Some(hni_telemetry::attribute(&profile, goodput).render())
}

/// Prometheus text-exposition rendering of an experiment's profile.
pub fn prom_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id, "prom")?;
    Some(hni_telemetry::expfmt::expose(&profile))
}

/// The percentile bands of each `(stage, histogram)` series as table
/// rows (µs), under a first column headed `what`.
pub(crate) fn pct_table(what: &str, series: &[(&str, &Histogram)]) -> Table {
    let mut t = Table::new([
        what, "n", "mean us", "p50<=", "p90<=", "p99<=", "p999<=", "max us",
    ]);
    let us = |ps: u64| format!("{:.2}", ps as f64 / 1e6);
    for (stage, h) in series {
        let p = h.pcts();
        t.row([
            stage.to_string(),
            p.count.to_string(),
            format!("{:.2}", p.mean / 1e6),
            us(p.p50),
            us(p.p90),
            us(p.p99),
            us(p.p999),
            us(p.max),
        ]);
    }
    t
}

/// Always-on latency-histogram report for an experiment's canonical
/// run: percentile bands per pipeline stage (µs), plus the same data
/// as a Prometheus histogram family (picosecond `le` bounds) that the
/// `promlint` conformance validator can check.
pub fn hist_report(id: &str) -> Option<String> {
    let (title, run) = canonical(id, "hist", &mut NullTracer, &mut NullProfiler)?;
    let series = run.plane().latency;
    let t = pct_table("latency", &series);
    let mut prom = String::new();
    let label_sets: Vec<[(&str, &str); 1]> = series.iter().map(|(s, _)| [("stage", *s)]).collect();
    let fam: Vec<(&[(&str, &str)], &Histogram)> = series
        .iter()
        .zip(&label_sets)
        .map(|((_, h), ls)| (&ls[..], *h))
        .collect();
    hni_telemetry::expfmt::expose_histogram_family(
        &mut prom,
        "hni_latency_ps",
        "always-on packet latency distribution (picoseconds)",
        &fam,
    );
    Some(format!(
        "{title}\n(percentiles are log2-bucket upper bounds — at most 2x the true\n\
         order statistic; max is exact; see EXPERIMENTS.md \"Percentile methodology\")\n\n{}\n{prom}",
        t.render()
    ))
}

/// Per-VC heavy-hitter report for an experiment's canonical run: the
/// space-saving top-K by cell count, with overestimate bounds, plus
/// the exact sharded totals.
pub fn topvc_report(id: &str) -> Option<String> {
    let (title, run) = canonical(id, "topvc", &mut NullTracer, &mut NullProfiler)?;
    let m = run.plane().vc;
    let total = m.shards.total_cells().max(1);
    let mut t = Table::new(["rank", "vc key", "cells (est)", "overest <=", "share"]);
    for (i, e) in m.top_cells.top().iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            e.key.to_string(),
            e.count.to_string(),
            e.err.to_string(),
            table::fmt_pct(e.count as f64 / total as f64),
        ]);
    }
    Some(format!(
        "{title} — per-VC heavy hitters (top-{K} of unbounded VC space, O(K) memory)\n\
         exact totals: {cells} cells / {bytes} octets across {shards} shards (peak shard {peak})\n\
         guarantee: any VC with true count > {thr} is in the table;\n\
         each estimate overshoots its true count by at most its bound\n\n{}",
        t.render(),
        K = m.top_cells.k(),
        cells = m.shards.total_cells(),
        bytes = m.shards.total_bytes(),
        shards = hni_telemetry::topk::VC_SHARDS,
        peak = m.shards.max_shard_cells(),
        thr = m.top_cells.guaranteed_threshold(),
    ))
}

/// Tail-anatomy report: cohort critical-path attribution of an
/// experiment's canonical run (`report tail <id>`). Renders the blame
/// headline, the tail-vs-median table, and the per-stage tail shares as
/// Prometheus gauges.
pub fn tail_report(id: &str) -> Option<String> {
    let mut tracer = VecTracer::new();
    let (title, _) = canonical(id, "tail", &mut tracer, &mut NullProfiler)?;
    let spans = hni_telemetry::PacketSpans::from_events(tracer.events());
    let body = match hni_telemetry::attribute_tail(&spans) {
        Some(attr) => format!("{}\n{}", attr.render(), attr.prom()),
        None => "no attributable tail (uniform latency or <2 completed packets)\n".to_string(),
    };
    Some(format!(
        "{title} — tail anatomy ({} packets indexed)\n\
         (cohorts are exact order statistics over traced totals)\n\n{body}",
        spans.len()
    ))
}

/// One completed traced life as `report exemplars` ranks it. The
/// derived order is latency first, then the identity `(vc, pkt)`: a
/// total order, so a selection by it is independent of trace order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Exemplar {
    latency_ps: u64,
    /// VC key on the transmit side.
    vc: u32,
    pkt: u32,
    /// Completion clock, ps.
    done_ps: u64,
}

/// How many of the slowest lives `report exemplars` names.
const EXEMPLARS_SLOWEST: usize = 8;

/// Every completed life in a span index, slowest first.
fn ranked_lives(spans: &hni_telemetry::PacketSpans) -> Vec<Exemplar> {
    let mut ranked: Vec<Exemplar> = spans
        .packets()
        .filter_map(|pkt| {
            let life = spans.life(pkt).filter(|l| l.is_complete())?;
            Some(Exemplar {
                latency_ps: life.total()?.as_ps(),
                vc: life.vc,
                pkt,
                done_ps: life.complete_exit?.as_ps(),
            })
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    ranked
}

/// Tail exemplar report: the slowest traced lives of an experiment's
/// canonical run with their full span breakdowns (`report exemplars
/// <id>`).
pub fn exemplars_report(id: &str) -> Option<String> {
    let mut tracer = VecTracer::new();
    let (title, run) = canonical(id, "exemplars", &mut tracer, &mut NullProfiler)?;
    // Only end-to-end runs trace whole lives.
    let Run::E2e(_) = run else { return None };
    let spans = hni_telemetry::PacketSpans::from_events(tracer.events());
    let ranked = ranked_lives(&spans);
    let slowest = &ranked[..ranked.len().min(EXEMPLARS_SLOWEST)];
    let mut t = Table::new(["rank", "vc key", "pkt", "latency us", "done us"]);
    for (i, e) in slowest.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            e.vc.to_string(),
            e.pkt.to_string(),
            format!("{:.3}", e.latency_ps as f64 / 1e6),
            format!("{:.3}", e.done_ps as f64 / 1e6),
        ]);
    }
    let mut out = format!(
        "{title} — tail exemplars (traced lives,\n\
         {} packets offered)\n\n{}\n",
        ranked.len(),
        t.render()
    );
    use std::fmt::Write as _;
    for e in slowest {
        let _ = writeln!(out, "packet {} span breakdown (wait + service us):", e.pkt);
        let life = spans.life(e.pkt).expect("ranked from the index");
        for s in life.breakdown() {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.3} + {:>10.3}",
                s.label,
                s.wait.as_us_f64(),
                s.service.as_us_f64()
            );
        }
    }
    Some(out)
}

/// Side-by-side comparison of two run ids (`report diff <a> <b>`):
/// per-stage latency deltas from the always-on histograms, and the
/// profiled utilization/goodput deltas. `Err` on ids without a
/// canonical run or when the two runs' stage schemas differ (the
/// caller exits 2).
pub fn diff_report(a: &str, b: &str) -> Result<String, String> {
    // One profiled run per side; the histograms ride along.
    let side = |id: &str| {
        let mut profiler = CycleProfiler::new();
        let (title, run) = canonical(id, "hist", &mut NullTracer, &mut profiler)
            .ok_or_else(|| format!("{id}: no canonical run"))?;
        let plane = run.plane();
        let attribution =
            hni_telemetry::attribute(&profiler.snapshot(plane.end), plane.goodput_bps);
        Ok::<_, String>((title, run, attribution))
    };
    let (title_a, run_a, ra) = side(a)?;
    let (title_b, run_b, rb) = side(b)?;
    let (series_a, series_b) = (run_a.plane().latency, run_b.plane().latency);
    let stages_a: Vec<&str> = series_a.iter().map(|(s, _)| *s).collect();
    let stages_b: Vec<&str> = series_b.iter().map(|(s, _)| *s).collect();
    if stages_a != stages_b {
        return Err(format!(
            "schema mismatch: {a} reports stages {stages_a:?}, {b} reports {stages_b:?}"
        ));
    }
    let us = |ps: u64| ps as f64 / 1e6;
    let mut t = Table::new([
        "stage", "n a", "n b", "mean a", "mean b", "d mean", "p99 a", "p99 b", "d p99",
    ]);
    for ((stage, ha), (_, hb)) in series_a.iter().zip(&series_b) {
        let (pa, pb) = (ha.pcts(), hb.pcts());
        t.row([
            stage.to_string(),
            pa.count.to_string(),
            pb.count.to_string(),
            format!("{:.2}", pa.mean / 1e6),
            format!("{:.2}", pb.mean / 1e6),
            format!("{:+.2}", pb.mean / 1e6 - pa.mean / 1e6),
            format!("{:.2}", us(pa.p99)),
            format!("{:.2}", us(pb.p99)),
            format!("{:+.2}", us(pb.p99) - us(pa.p99)),
        ]);
    }
    let mut out = format!(
        "diff {a} vs {b}\n  a: {title_a}\n  b: {title_b}\n\n\
         Per-stage latency (us; log2-bucket p99 upper bounds):\n{}",
        t.render()
    );
    // Profiled side: goodput and per-resource utilization deltas.
    let mut p = Table::new(["resource", "util a", "util b", "d util"]);
    for sa in &ra.ranked {
        if let Some(sb) = rb.share(sa.component) {
            p.row([
                sa.component.name().to_string(),
                table::fmt_pct(sa.utilization),
                table::fmt_pct(sb.utilization),
                format!("{:+.1}pp", (sb.utilization - sa.utilization) * 100.0),
            ]);
        }
    }
    let (ga, gb) = (ra.goodput_bps, rb.goodput_bps);
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\nProfiled utilization (resources charged in both runs):\n{}\
         goodput: a {} vs b {} ({:+.1}%)\n",
        p.render(),
        table::fmt_bps(ga),
        table::fmt_bps(gb),
        if ga > 0.0 {
            (gb / ga - 1.0) * 100.0
        } else {
            0.0
        },
    );
    Ok(out)
}

/// Every Prometheus exposition an experiment renders, labelled with
/// its rendering: the `prom` profile gauges, the `hist` family and, for
/// end-to-end runs, the `tail` share gauges (`report promlint`). `None`
/// without a canonical run.
pub fn expositions(id: &str) -> Option<Vec<(&'static str, String)>> {
    let mut all = vec![("prom", prom_report(id)?)];
    // The hist and tail reports are a table followed by the exposition.
    for (name, out) in [("hist", hist_report(id)), ("tail", tail_report(id))] {
        let Some(mut text) = out else { continue };
        if let Some(start) = text.find("# HELP") {
            all.push((name, text.split_off(start)));
        }
    }
    Some(all)
}

/// [`trace_experiment`] thinned by the deterministic sampler: keeps
/// events whose (vc, pkt, cell) identity hashes into the 1-in-`one_in`
/// keep set under `seed`. The decision is a pure function of identity,
/// so the sampled trace is byte-identical across reruns and
/// `HNI_JOBS` worker counts.
pub fn sampled_trace_experiment(id: &str, one_in: u64, seed: u64) -> Option<Vec<TraceEvent>> {
    let events = trace_experiment(id)?;
    let sampler = hni_telemetry::Sampler::new(one_in, seed);
    Some(
        events
            .into_iter()
            .filter(|e| sampler.keeps(e.vc, e.pkt, e.cell))
            .collect(),
    )
}

/// Capture the structured event trace of one experiment's canonical
/// run. Returns `None` for ids without one.
pub fn trace_experiment(id: &str) -> Option<Vec<TraceEvent>> {
    let mut tracer = VecTracer::new();
    canonical(id, "trace", &mut tracer, &mut NullProfiler)?;
    Some(tracer.into_events())
}

/// The always-on plane of an experiment's canonical run as name-sorted
/// `name value` lines (`report metrics <id>`): the cell ledger's
/// buckets and whether they reconcile, each latency series' count,
/// mean, p50, p99 and max (ps; p50 and p99 are log2-bucket upper
/// bounds, max is exact), the per-VC totals, and the run's end time and
/// goodput.
pub fn metrics_experiment(id: &str) -> Option<String> {
    let (_, run) = canonical(id, "metrics", &mut NullTracer, &mut NullProfiler)?;
    let plane = run.plane();
    let mut lines = vec![
        format!("run.end_ps {}", plane.end.as_ps()),
        format!("run.goodput_bps {:.1}", plane.goodput_bps),
        format!("vc.cells {}", plane.vc.shards.total_cells()),
        format!("vc.octets {}", plane.vc.shards.total_bytes()),
    ];
    for (stage, h) in plane.latency {
        let p = h.pcts();
        lines.extend([
            format!("latency.{stage}.count {}", p.count),
            format!("latency.{stage}.mean_ps {:.1}", p.mean),
            format!("latency.{stage}.p50_ps {}", p.p50),
            format!("latency.{stage}.p99_ps {}", p.p99),
            format!("latency.{stage}.max_ps {}", p.max),
        ]);
    }
    if let Some(l) = plane.ledger {
        lines.push(format!("ledger.reconciles {}", l.reconciles()));
        for (bucket, cells) in [
            ("injected", l.injected),
            ("injected_retx", l.injected_retx),
            ("dropped_link", l.dropped_link),
            ("dropped_fifo", l.dropped_fifo),
            ("dropped_pool", l.dropped_pool),
            ("discarded_epd", l.discarded_epd),
            ("discarded_ppd", l.discarded_ppd),
            ("discarded_stale", l.discarded_stale),
            ("discarded_crc", l.discarded_crc),
            ("discarded_expired", l.discarded_expired),
            ("discarded_abandoned", l.discarded_abandoned),
            ("discarded_superseded", l.discarded_superseded),
            ("delivered_cells", l.delivered_cells),
        ] {
            lines.push(format!("ledger.{bucket} {cells}"));
        }
    }
    lines.sort();
    Some(lines.into_iter().map(|l| l + "\n").collect())
}

/// Run one experiment by id, returning its rendered report.
pub fn run_experiment(id: &str) -> Option<String> {
    experiment(id).map(|e| (e.run)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_runs_and_renders() {
        for id in EXPERIMENT_IDS {
            let out = run_experiment(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(out.len() > 100, "{id} output suspiciously short");
            assert!(out.contains(&id.to_uppercase()), "{id} header missing");
        }
    }

    /// A complete synthetic life of packet `pkt` on transmit key `vc`:
    /// every stage edge at `start_ns`, completion `latency_ns` later.
    fn life(vc: u32, pkt: u32, start_ns: u64, latency_ns: u64) -> Vec<TraceEvent> {
        use hni_telemetry::{Phase, Stage};
        let ev = |ns: u64, stage, phase| TraceEvent {
            time: Time::from_ns(ns),
            stage,
            phase,
            vc,
            pkt,
            cell: hni_telemetry::NO_ID,
            arg: 0,
        };
        let mut events: Vec<TraceEvent> = [
            (Stage::TxDescriptor, Phase::Instant),
            (Stage::TxSetup, Phase::Exit),
            (Stage::TxSegment, Phase::Exit),
            (Stage::TxFramer, Phase::Instant),
            (Stage::RxCellArrive, Phase::Instant),
            (Stage::RxCell, Phase::Exit),
            (Stage::RxValidate, Phase::Exit),
        ]
        .into_iter()
        .map(|(stage, phase)| ev(start_ns, stage, phase))
        .collect();
        events.push(ev(start_ns + latency_ns, Stage::RxComplete, Phase::Exit));
        events
    }

    /// The exemplar selection is a total order over completed lives:
    /// equal latencies rank by `(vc, pkt)`, whatever the trace order.
    #[test]
    fn exemplars_rank_by_identity_on_ties() {
        let ranked = |lives: &[(u32, u32, u64)]| {
            let events: Vec<TraceEvent> = lives
                .iter()
                .flat_map(|&(vc, pkt, lat)| life(vc, pkt, 1_000 * pkt as u64, lat))
                .collect();
            ranked_lives(&hni_telemetry::PacketSpans::from_events(&events))
        };
        fn ids(lives: &[Exemplar]) -> Vec<(u32, u32)> {
            lives.iter().map(|e| (e.vc, e.pkt)).collect()
        }
        let ties = [(64, 0, 100), (32, 1, 100), (64, 2, 100), (64, 3, 90)];
        let mut reversed = ties;
        reversed.reverse();
        let expected = [(64, 2), (64, 0), (32, 1), (64, 3)];
        assert_eq!(ids(&ranked(&ties)), expected);
        assert_eq!(ids(&ranked(&reversed)), expected);
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("r-f99").is_none());
    }

    #[test]
    fn ids_normalize_with_or_without_hyphen() {
        assert_eq!(normalize_id("r-f1"), "r-f1");
        assert_eq!(normalize_id("RF1"), "r-f1");
        assert_eq!(normalize_id("ro1"), "r-o1");
        assert_eq!(normalize_id("rw1"), "r-w1");
        assert_eq!(normalize_id("RW1"), "r-w1");
        assert_eq!(normalize_id("list"), "list"); // non-id words untouched
        assert_eq!(normalize_id("r"), "r");
    }

    /// The ids whose canonical run offers `rendering`, in report order.
    fn offering(rendering: &str) -> Vec<&'static str> {
        EXPERIMENT_IDS
            .into_iter()
            .filter(|id| renderings(id).contains(&rendering))
            .collect()
    }

    /// The capability matrix, checked against the declaration table:
    /// each rendering renders for an id iff the derivation offers it,
    /// `diff` and `promlint` accept exactly the ids with a canonical
    /// run, every exposition is conformant, and `report list` says so.
    /// The shape of each rendering is checked by its own test below.
    #[test]
    fn capabilities_follow_the_declarations() {
        let mut declared = Vec::new();
        for e in EXPERIMENTS {
            let mut rendered = Vec::new();
            for (name, render) in RENDERINGS {
                let Some(out) = render(e.id) else { continue };
                rendered.push(name);
                let shaped = match name {
                    "tail" => out.contains("p99 excess is"),
                    "exemplars" => out.contains("span breakdown"),
                    _ => !out.is_empty(),
                };
                assert!(shaped, "{name} {}:\n{out}", e.id);
            }
            assert_eq!(rendered, renderings(e.id), "{}", e.id);
            assert_eq!(rendered.is_empty(), e.canonical.is_none(), "{}", e.id);
            assert_eq!(diff_report(e.id, e.id).is_ok(), e.canonical.is_some());
            match expositions(e.id) {
                Some(all) => {
                    assert!(all.len() >= 2, "{}: prom and hist at least", e.id);
                    for (which, text) in all {
                        hni_telemetry::expfmt::validate(&text)
                            .unwrap_or_else(|v| panic!("{} {which}: {v:?}", e.id));
                    }
                }
                None => assert!(e.canonical.is_none(), "{}", e.id),
            }
            let line = if rendered.is_empty() {
                e.id.to_string()
            } else {
                declared.push(e.id);
                format!("{}  [{}]", e.id, rendered.join(" "))
            };
            assert_eq!(list_line(e.id), line);
        }
        assert_eq!(declared, ["r-f1", "r-f2", "r-f3", "r-w1"]);
        let tail: Vec<_> = EXPERIMENT_IDS
            .into_iter()
            .filter(|id| renderings(id).contains(&"tail"))
            .collect();
        assert_eq!(tail, ["r-f3"], "only end-to-end runs index full lives");
        assert!(renderings("nope").is_empty());
    }

    #[test]
    fn profile_ids_yield_profiles_and_renderings() {
        let ids = offering("profile");
        assert_eq!(ids, ["r-f1", "r-f2", "r-f3", "r-w1"]);
        for id in ids {
            let (profile, goodput) =
                profile_experiment(id, "profile").unwrap_or_else(|| panic!("{id} unprofiled"));
            assert!(profile.span() > hni_telemetry::Duration::ZERO, "{id}");
            assert!(goodput > 0.0, "{id}");
            let bn = bottleneck_report(id).unwrap();
            assert!(bn.contains("bottleneck:"), "{id} verdict missing:\n{bn}");
            let prom = prom_report(id).unwrap();
            assert!(
                prom.contains("hni_component_utilization"),
                "{id} exposition missing family:\n{prom}"
            );
        }
        // The pipeline runs charge every stage they model; the
        // transport charges only its receive link.
        for id in ["r-f1", "r-f2", "r-f3"] {
            let folded = folded_report(id).unwrap();
            assert!(
                folded.lines().count() >= 3,
                "{id} folded too thin:\n{folded}"
            );
        }
        assert!(!folded_report("r-w1").unwrap().is_empty());
        assert!(profile_experiment("r-t1", "profile").is_none());
        assert!(folded_report("nope").is_none());
        assert!(bottleneck_report("r-t1").is_none());
        assert!(prom_report("r-t1").is_none());
    }

    #[test]
    fn hist_ids_render_bands_and_conformant_exposition() {
        let ids = offering("hist");
        assert_eq!(ids, ["r-f1", "r-f2", "r-f3", "r-w1"]);
        for id in ids {
            let out = hist_report(id).unwrap_or_else(|| panic!("{id} missing hist"));
            for band in ["p50<=", "p90<=", "p99<=", "p999<=", "max us"] {
                assert!(out.contains(band), "{id} missing {band}:\n{out}");
            }
            // The embedded Prometheus family must pass the conformance
            // validator (the same one `report promlint` runs).
            let prom_start = out
                .find("# HELP")
                .unwrap_or_else(|| panic!("{id} no exposition"));
            hni_telemetry::expfmt::validate(&out[prom_start..])
                .unwrap_or_else(|v| panic!("{id} exposition violations: {v:?}"));
        }
        assert!(hist_report("r-t1").is_none());
    }

    #[test]
    fn rf3_hist_report_has_all_three_stages() {
        let out = hist_report("r-f3").unwrap();
        for stage in [r#"stage="tx""#, r#"stage="rx""#, r#"stage="e2e""#] {
            assert!(out.contains(stage), "missing {stage}:\n{out}");
        }
    }

    #[test]
    fn topvc_ids_render_heavy_hitters() {
        let ids = offering("topvc");
        assert_eq!(ids, ["r-f1", "r-f2", "r-f3", "r-w1"]);
        for id in ids {
            let out = topvc_report(id).unwrap_or_else(|| panic!("{id} missing topvc"));
            assert!(out.contains("vc key"), "{id}:\n{out}");
            assert!(out.contains("exact totals:"), "{id}:\n{out}");
        }
        // R-F2's canonical run spreads cells across 4 VCs — all tracked.
        let rx = topvc_report("r-f2").unwrap();
        assert!(
            rx.lines()
                .filter(|l| l.trim_start().starts_with(['1', '2', '3', '4']))
                .count()
                >= 4,
            "expected >=4 ranked VCs:\n{rx}"
        );
        assert!(topvc_report("r-t1").is_none());
    }

    #[test]
    fn hist_and_topvc_accept_hyphenless_ids() {
        // Regression: capability ids must pass through the same
        // normalization as plain experiment ids (`RF1` == `r-f1`).
        for raw in ["RF1", "rf1"] {
            let id = normalize_id(raw);
            let offered = renderings(&id);
            assert!(offered.contains(&"hist"), "{raw} -> {id}");
            assert!(offered.contains(&"topvc"), "{raw} -> {id}");
            assert!(hist_report(&id).is_some());
            assert!(topvc_report(&id).is_some());
        }
    }

    #[test]
    fn sampled_trace_is_deterministic_and_thinner() {
        let full = trace_experiment("r-f1").unwrap();
        let a = sampled_trace_experiment("r-f1", 64, 0xC0FFEE).unwrap();
        let b = sampled_trace_experiment("r-f1", 64, 0xC0FFEE).unwrap();
        assert_eq!(a, b, "sampling must be reproducible");
        assert!(a.len() < full.len(), "1-in-64 must actually thin the trace");
        assert!(!a.is_empty(), "some events must survive");
        // Sampling preserves relative order (it is a pure filter).
        let mut it = full.iter();
        for ev in &a {
            assert!(it.any(|e| e == ev), "sampled event out of order");
        }
        assert!(sampled_trace_experiment("r-t1", 64, 0).is_none());
    }

    #[test]
    fn traceable_ids_yield_events_and_metrics() {
        let ids = offering("trace");
        assert_eq!(ids, ["r-f1", "r-f2", "r-f3", "r-w1"]);
        for id in ids {
            let events = trace_experiment(id).unwrap_or_else(|| panic!("{id} untraceable"));
            assert!(events.len() > 50, "{id}: only {} events", events.len());
            let dump = metrics_experiment(id).expect("metrics derivable");
            assert!(
                dump.lines().count() >= 5,
                "{id} metrics dump too thin:\n{dump}"
            );
            assert!(!dump.contains("reconciles false"), "{id}:\n{dump}");
        }
        assert!(trace_experiment("r-t1").is_none());
        assert!(metrics_experiment("nope").is_none());
    }
}
