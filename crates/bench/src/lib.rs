//! # hni-bench — the evaluation harness
//!
//! One module per reconstructed experiment (see DESIGN.md §4 for the
//! index). Each `run()` returns a rendered text table/figure **and** the
//! underlying numbers, so the `report` binary prints them and the
//! Criterion benches time reduced versions of the same code paths.
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

/// All experiment ids, in report order.
pub const EXPERIMENT_IDS: [&str; 20] = [
    "r-t1", "r-t2", "r-t3", "r-t4", "r-t5", "r-f1", "r-f2", "r-f3", "r-f4", "r-f5", "r-f6", "r-f7",
    "r-f8", "r-a1", "r-a2", "r-o1", "r-o2", "r-r1", "r-w1", "r-s1",
];

/// Experiment ids whose underlying runs can be captured as a trace
/// (`report --trace <id>` / `report metrics <id>`).
pub const TRACEABLE_IDS: [&str; 3] = ["r-f1", "r-f2", "r-f3"];

/// Experiment ids whose canonical runs can be cycle-profiled
/// (`report profile <id>` / `report bottleneck <id>` / `report prom <id>`).
pub const PROFILE_IDS: [&str; 3] = ["r-f1", "r-f2", "r-f3"];

/// Experiment ids whose canonical runs report always-on latency
/// histograms (`report hist <id>`).
pub const HIST_IDS: [&str; 4] = ["r-f1", "r-f2", "r-f3", "r-w1"];

/// Experiment ids whose canonical runs report per-VC heavy hitters
/// (`report topvc <id>`).
pub const TOPVC_IDS: [&str; 3] = ["r-f1", "r-f2", "r-f3"];

/// Experiment ids supporting tail anatomy (`report tail <id>` /
/// `report exemplars <id>`). Only runs traced through *both* pipeline
/// halves qualify — the cohort attributor needs complete
/// descriptor→completion lives, which tx- or rx-only canonical runs
/// (r-f1, r-f2) cannot provide.
pub const TAIL_IDS: [&str; 1] = ["r-f3"];

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

/// Cycle-profile one experiment's canonical run. Returns the profile
/// and the run's goodput (bits/s), or `None` for unsupported ids.
pub fn profile_experiment(id: &str) -> Option<(hni_telemetry::Profile, f64)> {
    match id {
        "r-f1" => Some(experiments::rf1_tx_throughput::profile_run()),
        "r-f2" => Some(experiments::rf2_rx_throughput::profile_run()),
        "r-f3" => Some(experiments::rf3_latency::profile_run()),
        _ => None,
    }
}

/// Folded-stack rendering of an experiment's profile (one
/// `component;activity <ns>` line per charged pair — flamegraph food).
pub fn folded_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id)?;
    Some(profile.folded_stacks())
}

/// Bottleneck-attribution rendering of an experiment's profile: the
/// utilization-ranked resource table plus implied throughput ceilings.
/// For R-F1 the attribution is additionally swept across every packet
/// size of the throughput figure, naming the saturating resource at
/// each point.
pub fn bottleneck_report(id: &str) -> Option<String> {
    use experiments::ro1_bottleneck;
    let (profile, goodput) = profile_experiment(id)?;
    let a = hni_telemetry::attribute(&profile, goodput);
    let mut out = a.render();
    if id == "r-f1" {
        let mut t = Table::new(["pkt octets", "bottleneck", "utilization", "implied ceiling"]);
        for p in ro1_bottleneck::sweep_tx(20) {
            t.row([
                p.len.to_string(),
                p.measured.to_string(),
                table::fmt_pct(p.utilization),
                table::fmt_bps(p.ceiling_bps),
            ]);
        }
        out = format!(
            "{out}\nSaturating resource at each swept packet size:\n{}",
            t.render()
        );
    }
    Some(out)
}

/// Prometheus text-exposition rendering of an experiment's profile.
pub fn prom_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id)?;
    Some(hni_telemetry::expfmt::expose(&profile))
}

/// Render one stage's percentile band as a table row (µs).
fn pct_row(stage: &str, h: &hni_telemetry::HdrHist) -> [String; 8] {
    let p = h.pcts();
    let us = |ps: u64| format!("{:.2}", ps as f64 / 1e6);
    [
        stage.to_string(),
        p.count.to_string(),
        format!("{:.2}", p.mean / 1e6),
        us(p.p50),
        us(p.p90),
        us(p.p99),
        us(p.p999),
        us(p.max),
    ]
}

/// The always-on latency series of an experiment's canonical run:
/// a title plus `(stage label, histogram)` pairs. Shared by
/// [`hist_report`] and [`diff_report`].
fn hist_series(id: &str) -> Option<(&'static str, Vec<(&'static str, hni_telemetry::HdrHist)>)> {
    let mut series: Vec<(&'static str, hni_telemetry::HdrHist)> = Vec::new();
    let title = match id {
        "r-f1" => {
            let r = experiments::rf1_tx_throughput::canonical_run();
            series.push(("tx", r.latency_hist));
            "R-F1 canonical transmit run (descriptor -> last cell on line)"
        }
        "r-f2" => {
            let r = experiments::rf2_rx_throughput::canonical_run();
            series.push(("rx", r.latency_hist));
            "R-F2 canonical receive run (first cell -> completion)"
        }
        "r-f3" => {
            let r = experiments::rf3_latency::canonical_run();
            series.push(("tx", r.tx.latency_hist.clone()));
            series.push(("rx", r.rx.latency_hist.clone()));
            series.push(("e2e", r.latency_hist));
            "R-F3 canonical loaded end-to-end run (descriptor at A -> completion at B)"
        }
        "r-w1" => {
            let r = experiments::rw1_transport::canonical_run();
            series.push(("frame", r.frame_latency));
            "R-W1 canonical closed-loop run (satellite path, 1% loss; \
             first transmission -> unique delivery)"
        }
        _ => return None,
    };
    Some((title, series))
}

/// Always-on latency-histogram report for an experiment's canonical
/// run: percentile bands per pipeline stage (µs), plus the same data
/// as a Prometheus histogram family (picosecond `le` bounds) that the
/// `promlint` conformance validator can check.
pub fn hist_report(id: &str) -> Option<String> {
    let mut t = Table::new([
        "latency", "n", "mean us", "p50<=", "p90<=", "p99<=", "p999<=", "max us",
    ]);
    let (title, series) = hist_series(id)?;
    for (stage, h) in &series {
        t.row(pct_row(stage, h));
    }
    let mut prom = String::new();
    let label_sets: Vec<[(&str, &str); 1]> = series.iter().map(|(s, _)| [("stage", *s)]).collect();
    let fam: Vec<(&[(&str, &str)], &hni_sim::Histogram)> = series
        .iter()
        .zip(&label_sets)
        .map(|((_, h), ls)| (&ls[..], h.as_histogram()))
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
    let (title, m) = match id {
        "r-f1" => (
            "R-F1 canonical transmit run",
            experiments::rf1_tx_throughput::canonical_run().vc_cells,
        ),
        "r-f2" => (
            "R-F2 canonical receive run",
            experiments::rf2_rx_throughput::canonical_run().vc_cells,
        ),
        "r-f3" => {
            let r = experiments::rf3_latency::canonical_run();
            // End-to-end: the receive side saw every surviving cell.
            (
                "R-F3 canonical end-to-end run (receive side)",
                r.rx.vc_cells,
            )
        }
        _ => return None,
    };
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
/// experiment's canonical loaded run (`report tail <id>`). Renders the
/// blame headline, the tail-vs-median table, and the per-stage tail
/// shares as Prometheus gauges.
pub fn tail_report(id: &str) -> Option<String> {
    if !TAIL_IDS.contains(&id) {
        return None;
    }
    let (_, events) = experiments::rf3_latency::canonical_trace();
    let spans = hni_telemetry::PacketSpans::from_events(&events);
    let body = match hni_telemetry::attribute_tail(&spans) {
        Some(attr) => format!("{}\n{}", attr.render(), attr.prom()),
        None => "no attributable tail (uniform latency or <2 completed packets)\n".to_string(),
    };
    Some(format!(
        "R-F3 canonical loaded run — tail anatomy ({} packets indexed)\n\
         (cohorts are exact order statistics over traced totals; the\n\
          reservoir's p99+ cohort in `report exemplars` uses the log2-bucket\n\
          histogram bound instead — see EXPERIMENTS.md \"R-O2 methodology\")\n\n{body}",
        spans.len()
    ))
}

/// Tail exemplar report: the always-on reservoir's slowest-N packets
/// with their full span breakdowns, plus the deterministic p99+
/// cohort sample (`report exemplars <id>`).
pub fn exemplars_report(id: &str) -> Option<String> {
    if !TAIL_IDS.contains(&id) {
        return None;
    }
    let (report, events) = experiments::rf3_latency::canonical_trace();
    let spans = hni_telemetry::PacketSpans::from_events(&events);
    let mut t = Table::new(["rank", "vc key", "pkt", "latency us", "done us"]);
    let slowest = report.tail.slowest();
    for (i, e) in slowest.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            e.vc.to_string(),
            e.pkt.to_string(),
            format!("{:.3}", e.latency().as_us_f64()),
            format!("{:.3}", e.done_ps as f64 / 1e6),
        ]);
    }
    let mut out = format!(
        "R-F3 canonical loaded run — tail exemplars (always-on reservoir,\n\
         {} packets offered, identity sample 1-in-{})\n\n{}\n",
        report.tail.recorded(),
        report.tail.one_in(),
        t.render()
    );
    use std::fmt::Write as _;
    for e in &slowest {
        match spans.life(e.pkt).map(|l| l.breakdown()) {
            Some(b) if !b.is_empty() => {
                let _ = writeln!(out, "packet {} span breakdown (wait + service us):", e.pkt);
                for s in &b {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:>10.3} + {:>10.3}",
                        s.label,
                        s.wait.as_us_f64(),
                        s.service.as_us_f64()
                    );
                }
            }
            _ => {
                let _ = writeln!(out, "packet {}: no spans indexed (not traced)", e.pkt);
            }
        }
    }
    // The p99+ cohort carved from the identity sample, using the
    // histogram's log2-bucket p99 bound as the threshold.
    let p99 = report.latency_hist.quantile(0.99);
    let cohort = report.tail.cohort(p99);
    let _ = writeln!(
        out,
        "\np99+ cohort (sampled identities >= histogram p99 bound {:.3} us): {}",
        p99 as f64 / 1e6,
        if cohort.is_empty() {
            "none sampled".to_string()
        } else {
            cohort
                .iter()
                .map(|e| format!("pkt {} ({:.3} us)", e.pkt, e.latency().as_us_f64()))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    Some(out)
}

/// Side-by-side comparison of two run ids (`report diff <a> <b>`):
/// per-stage latency deltas from the always-on histograms, and the
/// profiled utilization/goodput deltas. `Err` on unsupported ids or
/// when the two runs' stage schemas differ (the caller exits 2).
pub fn diff_report(a: &str, b: &str) -> Result<String, String> {
    let (title_a, series_a) =
        hist_series(a).ok_or_else(|| format!("{a}: no always-on histogram support"))?;
    let (title_b, series_b) =
        hist_series(b).ok_or_else(|| format!("{b}: no always-on histogram support"))?;
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
    if let (Some((pa, ga)), Some((pb, gb))) = (profile_experiment(a), profile_experiment(b)) {
        let (ra, rb) = (
            hni_telemetry::attribute(&pa, ga),
            hni_telemetry::attribute(&pb, gb),
        );
        let mut p = Table::new(["resource", "util a", "util b", "d util"]);
        for sa in &ra.ranked {
            if let Some(sb) = ra_lookup(&rb, sa.component) {
                p.row([
                    sa.component.name().to_string(),
                    table::fmt_pct(sa.utilization),
                    table::fmt_pct(sb.utilization),
                    format!("{:+.1}pp", (sb.utilization - sa.utilization) * 100.0),
                ]);
            }
        }
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
    }
    Ok(out)
}

fn ra_lookup(
    a: &hni_telemetry::Attribution,
    c: hni_telemetry::Component,
) -> Option<&hni_telemetry::ResourceShare> {
    a.ranked.iter().find(|s| s.component == c)
}

/// [`trace_experiment`] thinned by the deterministic sampler: keeps
/// events whose (vc, pkt, cell) identity hashes into the 1-in-`one_in`
/// keep set under `seed`. The decision is a pure function of identity,
/// so the sampled trace is byte-identical across reruns and
/// `HNI_JOBS` worker counts.
pub fn sampled_trace_experiment(
    id: &str,
    one_in: u64,
    seed: u64,
) -> Option<Vec<hni_telemetry::TraceEvent>> {
    let events = trace_experiment(id)?;
    let sampler = hni_telemetry::SamplingTracer::new(hni_telemetry::NullTracer, one_in, seed);
    Some(
        events
            .into_iter()
            .filter(|e| sampler.keeps(e.vc, e.pkt, e.cell))
            .collect(),
    )
}

/// Capture the structured event trace of one experiment's canonical
/// run. Returns `None` for ids without trace support.
pub fn trace_experiment(id: &str) -> Option<Vec<hni_telemetry::TraceEvent>> {
    match id {
        "r-f1" => Some(experiments::rf1_tx_throughput::trace_run()),
        "r-f2" => Some(experiments::rf2_rx_throughput::trace_run()),
        "r-f3" => Some(experiments::rf3_latency::trace_run(
            experiments::rf3_latency::TRACE_LEN,
        )),
        _ => None,
    }
}

/// Derive and dump the metrics registry from an experiment's trace.
pub fn metrics_experiment(id: &str) -> Option<String> {
    let events = trace_experiment(id)?;
    let end = events
        .last()
        .map(|e| e.time)
        .unwrap_or(hni_telemetry::Time::ZERO);
    Some(hni_telemetry::MetricsRegistry::from_trace(&events, end).dump(end))
}

/// Run one experiment by id, returning its rendered report.
pub fn run_experiment(id: &str) -> Option<String> {
    match id {
        "r-t1" => Some(experiments::rt1_budget::run()),
        "r-t2" => Some(experiments::rt2_partition::run()),
        "r-t3" => Some(experiments::rt3_memory::run()),
        "r-t4" => Some(experiments::rt4_pacing::run()),
        "r-t5" => Some(experiments::rt5_overhead::run()),
        "r-f1" => Some(experiments::rf1_tx_throughput::run()),
        "r-f2" => Some(experiments::rf2_rx_throughput::run()),
        "r-f3" => Some(experiments::rf3_latency::run()),
        "r-f4" => Some(experiments::rf4_host_cpu::run()),
        "r-f5" => Some(experiments::rf5_loss::run()),
        "r-f6" => Some(experiments::rf6_bus::run()),
        "r-f7" => Some(experiments::rf7_delineation::run()),
        "r-f8" => Some(experiments::rf8_congestion::run()),
        "r-a1" => Some(experiments::ra1_fifo_depth::run()),
        "r-a2" => Some(experiments::ra2_mips::run()),
        "r-o1" => Some(experiments::ro1_bottleneck::run()),
        "r-o2" => Some(experiments::ro2_tail::run()),
        "r-r1" => Some(experiments::rr1_discard::run()),
        "r-w1" => Some(experiments::rw1_transport::run()),
        "r-s1" => Some(experiments::rs1_scale::run()),
        _ => None,
    }
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

    #[test]
    fn profile_ids_yield_profiles_and_renderings() {
        for id in PROFILE_IDS {
            let (profile, goodput) =
                profile_experiment(id).unwrap_or_else(|| panic!("{id} unprofied"));
            assert!(profile.span() > hni_telemetry::Duration::ZERO, "{id}");
            assert!(goodput > 0.0, "{id}");
            let folded = folded_report(id).unwrap();
            assert!(
                folded.lines().count() >= 3,
                "{id} folded too thin:\n{folded}"
            );
            let bn = bottleneck_report(id).unwrap();
            assert!(bn.contains("bottleneck:"), "{id} verdict missing:\n{bn}");
            let prom = prom_report(id).unwrap();
            assert!(
                prom.contains("hni_component_utilization"),
                "{id} exposition missing family:\n{prom}"
            );
        }
        assert!(profile_experiment("r-t1").is_none());
        assert!(folded_report("nope").is_none());
        assert!(bottleneck_report("r-t1").is_none());
        assert!(prom_report("r-t1").is_none());
    }

    #[test]
    fn rf1_bottleneck_report_names_resource_at_every_size() {
        let bn = bottleneck_report("r-f1").unwrap();
        for size in experiments::rf1_tx_throughput::SIZES {
            assert!(bn.contains(&size.to_string()), "size {size} missing:\n{bn}");
        }
        assert!(bn.contains("engine") && bn.contains("link"), "{bn}");
    }

    #[test]
    fn hist_ids_render_bands_and_conformant_exposition() {
        for id in HIST_IDS {
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
        for id in TOPVC_IDS {
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
            assert!(HIST_IDS.contains(&id.as_str()), "{raw} -> {id}");
            assert!(TOPVC_IDS.contains(&id.as_str()), "{raw} -> {id}");
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
        for id in TRACEABLE_IDS {
            let events = trace_experiment(id).unwrap_or_else(|| panic!("{id} untraceable"));
            assert!(events.len() > 50, "{id}: only {} events", events.len());
            // Times arrive in simulation order within each pipeline half.
            let dump = metrics_experiment(id).expect("metrics derivable");
            assert!(
                dump.lines().count() >= 5,
                "{id} metrics dump too thin:\n{dump}"
            );
        }
        assert!(trace_experiment("r-t1").is_none());
        assert!(metrics_experiment("nope").is_none());
    }
}
