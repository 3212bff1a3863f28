//! Running a byte-path workload: set-up, the untraced measurement, and
//! the traced run with its replay.
//!
//! A run repeats its workload's epoch (a fixed, seeded unit of work)
//! until `--seconds` have passed. The host is shared with other
//! tenants, whose load comes and goes; it can only ever slow an epoch
//! down. So the rates and frame times come from the quietest quarter of
//! the epochs (the fastest by wall time per cell): that figure follows
//! the code more closely than the median of all epochs, which follows
//! the neighbours too. The median of all epochs is printed beside it.

use crate::nicpath::{Epoch, RealPath};
use crate::replay::Replay;
use crate::report::Outcome;
use crate::spans::{Layer, NoProbe, Probe, Recorder, N_LAYERS};
use crate::stats::{median, peak_rss_mb};
use crate::traffic::{NicWorkload, Traffic};
use crate::Options;
use hni_sonet::LineRate;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fresh set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Epochs every measurement runs at least, so that the check that
/// epochs repeat exactly always has two to compare.
const MIN_EPOCHS: usize = 2;
/// The share of epochs the figures come from: the quietest quarter.
const QUIET_SHARE: f64 = 0.25;
/// A reconcile ratio outside this band gets its remainder named.
const RECONCILE_BAND: (f64, f64) = (0.85, 1.15);
/// The lines the headroom tables compare against.
const LINES: [(&str, LineRate); 4] = [
    ("OC-3", LineRate::Oc3),
    ("OC-12", LineRate::Oc12),
    ("OC-48", LineRate::Oc48),
    ("OC-192", LineRate::Oc192),
];

/// Run workload `w` as `opts` asks.
pub fn run(w: &NicWorkload, opts: &Options) -> Outcome {
    let n = ((w.sdus_per_epoch as f64 * opts.scale).round() as usize).max(1);
    let traffic = Traffic::generate(w, n, opts.seed);
    let mut out = Outcome::default();
    let _ = writeln!(
        out.text,
        "{}: {} VCs, {} SDUs ({} data cells) per epoch, seed {}, OC-12, closed loop, one sender",
        w.name,
        w.n_vcs,
        n,
        traffic.cells(),
        opts.seed
    );

    let budget = Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(w, &traffic, opts, budget / 3, &mut out);
        return out;
    }
    let mut path = RealPath::setup(w, &traffic, opts.seed);
    // One untimed epoch first: the process has just started, so caches,
    // the allocator and the core's clock are still cold.
    path.run_epoch(&mut NoProbe, false);
    // The timed set-ups are spread over the run, so they meet the same
    // share of the neighbours' load as the epochs do; a burst of load
    // would otherwise hit all of them at once.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let time_setup = |times: &mut Vec<f64>| {
        let t0 = Instant::now();
        let fresh = RealPath::setup(w, &traffic, opts.seed);
        times.push(t0.elapsed().as_secs_f64());
        drop(fresh);
    };
    let (epochs, _) = measure(
        &mut path,
        &mut NoProbe,
        budget,
        MIN_EPOCHS,
        false,
        |elapsed| {
            let due = budget.mul_f64(setup_times.len() as f64 / SETUPS as f64);
            if setup_times.len() < SETUPS && elapsed >= due {
                time_setup(&mut setup_times);
            }
        },
    );
    while setup_times.len() < SETUPS {
        time_setup(&mut setup_times);
    }
    check_epochs(w, &epochs, &mut out);
    end_to_end(&epochs, median(&setup_times), &mut out);
    out
}

/// Run epochs until `budget` has passed and at least `min` are done,
/// calling `between` with the time elapsed after each. With a recorder,
/// also returns each epoch's per-layer self time.
fn measure<P: Probe + Totals>(
    path: &mut RealPath<'_>,
    probe: &mut P,
    budget: Duration,
    min: usize,
    record: bool,
    mut between: impl FnMut(Duration),
) -> (Vec<Epoch>, Vec<[u64; N_LAYERS]>) {
    let start = Instant::now();
    let mut epochs = Vec::new();
    let mut layers = Vec::new();
    loop {
        let before = probe.totals();
        let e = path.run_epoch(probe, record);
        layers.push(delta(probe.totals(), before));
        let stalled = e.stalled;
        epochs.push(e);
        between(start.elapsed());
        if stalled || (epochs.len() >= min && start.elapsed() >= budget) {
            return (epochs, layers);
        }
    }
}

/// Per-layer totals of a probe (none for the untraced probe).
trait Totals {
    fn totals(&self) -> [u64; N_LAYERS];
}

impl Totals for NoProbe {
    fn totals(&self) -> [u64; N_LAYERS] {
        [0; N_LAYERS]
    }
}

impl Totals for Recorder {
    fn totals(&self) -> [u64; N_LAYERS] {
        Recorder::totals(self)
    }
}

fn delta(after: [u64; N_LAYERS], before: [u64; N_LAYERS]) -> [u64; N_LAYERS] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Indices of the quietest quarter (at least one) of epochs whose wall
/// time per cell is `ns_per_cell`.
fn quiet(ns_per_cell: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ns_per_cell.len()).collect();
    idx.sort_by(|&a, &b| ns_per_cell[a].total_cmp(&ns_per_cell[b]));
    idx.truncate(((ns_per_cell.len() as f64 * QUIET_SHARE).ceil() as usize).max(1));
    idx
}

/// Median over the quiet epochs of `xs`, ranked by `ns_per_cell`.
fn quiet_median(xs: &[f64], ns_per_cell: &[f64]) -> f64 {
    median(
        &quiet(ns_per_cell)
            .iter()
            .map(|&i| xs[i])
            .collect::<Vec<_>>(),
    )
}

/// How far the quiet estimate moves between the odd and the even
/// epochs, relative to the estimate from all of them: an A/A noise
/// floor for figures derived from `ns_per_cell`.
fn aa_noise(ns_per_cell: &[f64]) -> f64 {
    let half = |parity: usize| -> Vec<f64> {
        ns_per_cell
            .iter()
            .skip(parity)
            .step_by(2)
            .copied()
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if odd.is_empty() {
        return f64::NAN;
    }
    let est = |v: &[f64]| quiet_median(v, v);
    (est(&even) - est(&odd)).abs() / est(ns_per_cell)
}

fn ns_per_cell(e: &Epoch) -> f64 {
    e.wall_ns as f64 / e.data_cells.max(1) as f64
}

/// Output checks every run makes; counts the attempts and failures.
fn check_epochs(w: &NicWorkload, epochs: &[Epoch], out: &mut Outcome) {
    let first = &epochs[0];
    let bad: u64 = epochs.iter().map(|e| e.bad).sum();
    out.attempted += epochs.iter().map(|e| e.offered).sum::<u64>();
    out.failed += bad;
    out.check(
        "every delivered SDU passed its tag check and memcmp",
        bad == 0,
    );
    out.check("every epoch drained", epochs.iter().all(|e| !e.stalled));
    out.check(
        "every epoch delivered the same SDUs in the same order",
        epochs.iter().all(|e| e.tally() == first.tally()),
    );
    if w.mux.is_none() {
        out.failed += epochs.iter().map(|e| e.offered - e.delivered).sum::<u64>();
        out.check("clean path: fail_frac is 0", first.fail_frac() == 0.0);
        out.check(
            "clean path: sonet.line_util >= 0.99",
            first.line_util() >= 0.99,
        );
    } else {
        let f = first.fail_frac();
        out.check("faulted path: 0 < fail_frac < 0.5", f > 0.0 && f < 0.5);
    }
    out.tally = first.tally();
    let _ = writeln!(
        out.text,
        "epochs {} | per epoch: offered {} delivered {} failed-checks {} fail_frac {:.6} \
         line_util {:.5} digest {:016x}",
        epochs.len(),
        first.offered,
        first.delivered,
        first.bad,
        first.fail_frac(),
        first.line_util(),
        first.digest
    );
}

/// The end-to-end metrics of an untraced measurement.
fn end_to_end(epochs: &[Epoch], setup_s: f64, out: &mut Outcome) {
    let cost: Vec<f64> = epochs.iter().map(ns_per_cell).collect();
    let rates: Vec<f64> = cost.iter().map(|c| 1e9 / c).collect();
    let goodput: Vec<f64> = epochs
        .iter()
        .map(|e| e.octets as f64 * 8.0 / (e.wall_ns as f64 / 1e9) / 1e6)
        .collect();
    let quiet_idx = quiet(&cost);
    let us = |f: fn(&Epoch) -> u64| {
        quiet_median(
            &epochs.iter().map(|e| f(e) as f64 / 1e3).collect::<Vec<_>>(),
            &cost,
        )
    };
    let rate = quiet_median(&rates, &cost);
    out.metric("cells_per_s", "cells/s", rate);
    out.metric("goodput_mbps", "Mb/s", quiet_median(&goodput, &cost));
    out.metric("frame_p50_us", "us", us(|e| e.frame_p50_ns));
    out.metric("setup_s", "s", setup_s);
    out.metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN));
    let _ = writeln!(
        out.text,
        "quiet epochs {} of {}, {} frames each: frame p50 {:.1} us, p99 {:.1} us (medians over \
         quiet epochs); A/A noise {:.2}%; median of all epochs {:.0} cells/s",
        quiet_idx.len(),
        epochs.len(),
        epochs[0].frames,
        us(|e| e.frame_p50_ns),
        us(|e| e.frame_p99_ns),
        aa_noise(&cost) * 100.0,
        median(&rates)
    );
    let _ = writeln!(out.text, "{}", headroom_rates(rate));
}

/// End-to-end cell rate as a multiple of each line's cell rate.
fn headroom_rates(rate: f64) -> String {
    let mut s = String::from("line-rate headroom (cells_per_s / line cell rate):");
    for (name, r) in LINES {
        let line_rate = 1e12 / r.cell_line_time().as_ps() as f64;
        let _ = write!(s, " {name} {:.3}x", rate / line_rate);
    }
    s
}

/// Self ns per data cell of each layer over the quiet epochs, ranked by
/// `wall_ns` per cell.
fn layer_ns(layers: &[[u64; N_LAYERS]], cells: &[u64], wall_ns: &[u64]) -> [f64; N_LAYERS] {
    let cost: Vec<f64> = wall_ns
        .iter()
        .zip(cells)
        .map(|(&w, &c)| w as f64 / c.max(1) as f64)
        .collect();
    let idx = quiet(&cost);
    let n: u64 = idx.iter().map(|&i| cells[i]).sum();
    std::array::from_fn(|l| idx.iter().map(|&i| layers[i][l]).sum::<u64>() as f64 / n.max(1) as f64)
}

/// The traced run: an untraced phase for the base figure, a traced
/// real-path phase (host-driver spans, recorded passes), and the
/// layer-by-layer replay of those passes. Each phase gets `phase`.
fn traced(w: &NicWorkload, traffic: &Traffic, opts: &Options, phase: Duration, out: &mut Outcome) {
    let mut plain = RealPath::setup(w, traffic, opts.seed);
    let (base, _) = measure(&mut plain, &mut NoProbe, phase, MIN_EPOCHS, false, |_| {});
    drop(plain);
    let base_cost: Vec<f64> = base.iter().map(ns_per_cell).collect();
    let e2e_ns = quiet_median(&base_cost, &base_cost);

    let mut real = RealPath::setup(w, traffic, opts.seed);
    let mut rec_real = Recorder::new();
    let (epochs, real_layers) = measure(&mut real, &mut rec_real, phase, 1, true, |_| {});
    drop(real);
    check_epochs(w, &epochs, out);

    let mut replay = Replay::setup(w, traffic, opts.seed);
    let mut rec = Recorder::new();
    let hec0 = replay.hec_discards();
    let start = Instant::now();
    let mut replayed = Vec::new();
    let mut replay_layers = Vec::new();
    let mut replay_wall = Vec::new();
    for e in &epochs {
        if !replayed.is_empty() && start.elapsed() >= phase {
            break;
        }
        let before = rec.totals();
        let t0 = Instant::now();
        replayed.push(replay.run_epoch(&e.steps, &mut rec));
        replay_wall.push(t0.elapsed().as_nanos() as u64);
        replay_layers.push(delta(rec.totals(), before));
    }
    let hec_replay = replay.hec_discards() - hec0;

    let frames_ok = replayed.iter().all(|r| r.frame_mismatches == 0);
    let same = replayed
        .iter()
        .zip(&epochs)
        .all(|(r, e)| (r.delivered, r.bad, r.digest) == (e.delivered, e.bad, e.digest));
    out.check(
        "replayed transmit frames are byte-identical to the real Nic's",
        frames_ok,
    );
    out.check("replay delivers the real path's SDU digest", same);
    out.frames_identical = Some(frames_ok && same);
    let hec_real: u64 = epochs[..replayed.len()]
        .iter()
        .map(|e| e.hec_discards)
        .sum();
    out.check(
        "replay's HEC discards match the real receiver's",
        hec_replay == hec_real,
    );
    out.check(
        "no cell for an unopened VC and no SONET frame error",
        replayed
            .iter()
            .all(|r| r.unknown_vc_cells == 0 && r.frame_errors == 0),
    );

    // Per-layer self time per data cell: fine layers from the replay,
    // host-driver calls from the traced real path.
    let fine = layer_ns(
        &replay_layers,
        &replayed.iter().map(|r| r.data_cells).collect::<Vec<_>>(),
        &replay_wall,
    );
    let real_cells: Vec<u64> = epochs.iter().map(|e| e.data_cells).collect();
    let real_wall: Vec<u64> = epochs.iter().map(|e| e.wall_ns).collect();
    let host = layer_ns(&real_layers, &real_cells, &real_wall);
    let mut fine_sum = 0.0;
    let mut rows = Vec::new();
    for l in Layer::ALL {
        let i = l as usize;
        let v = if l.is_host() { host[i] } else { fine[i] };
        if !l.is_host() {
            fine_sum += v;
        }
        rows.push((l, v));
        out.metric(&format!("{}_ns", l.name()), "ns/cell", v);
    }
    let reconcile = fine_sum / e2e_ns;
    let traced_cost: Vec<f64> = epochs.iter().map(ns_per_cell).collect();
    let traced_ns = quiet_median(&traced_cost, &traced_cost);
    let overhead = traced_ns / e2e_ns - 1.0;
    let noise = aa_noise(&base_cost);
    out.metric("trace.reconcile_ratio", "ratio", reconcile);
    out.metric("trace.overhead", "ratio", overhead);

    let first = &epochs[0];
    let r0 = &replayed[0];
    out.tally.reassembly_failures = Some(r0.crc_failures + r0.timeouts + r0.other_failures);
    out.metric("sonet.line_util", "ratio", first.line_util());
    out.metric(
        "core.cam_probes_per_lookup",
        "ratio",
        replay.cam().table_stats().mean_probes(),
    );
    out.metric("atm.hec_discards", "count", first.hec_discards as f64);
    out.metric("aal.crc_failures", "count", r0.crc_failures as f64);
    out.metric("aal.timeouts", "count", r0.timeouts as f64);
    out.metric(
        "host.interrupts_per_sdu",
        "ratio",
        first.interrupts as f64 / first.delivered.max(1) as f64,
    );
    out.metric("host.drops", "count", first.host_drops as f64);
    out.metric("fail_frac", "ratio", first.fail_frac());

    // The human summary: layer table against the lines' cell times,
    // reconciliation, and the tracing overhead against its noise.
    let _ = writeln!(
        out.text,
        "traced: {} real epochs, {} replayed ({} frames compared); untraced base {:.1} ns/cell \
         from {} epochs",
        epochs.len(),
        replayed.len(),
        replayed.iter().map(|r| r.frames).sum::<u64>(),
        e2e_ns,
        base.len()
    );
    let mut table = format!(
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>8}\n",
        "layer (self ns/cell)", "ns/cell", "OC-3%", "OC-12%", "OC-48%", "OC-192%"
    );
    for (l, v) in &rows {
        let _ = write!(table, "{:<22} {:>9.1}", l.name(), v);
        for (_, r) in LINES {
            let cell_ns = r.cell_line_time().as_ps() as f64 / 1e3;
            let _ = write!(table, " {:>8.1}", 100.0 * v / cell_ns);
        }
        table.push('\n');
    }
    let _ = write!(out.text, "{table}");
    let _ = writeln!(
        out.text,
        "cell time per line: OC-3 2726 ns, OC-12 681.6 ns, OC-48 170.4 ns, OC-192 42.6 ns \
         (host.* rows are the real path's driver calls; they contain the fine layers)"
    );
    let _ = writeln!(out.text, "{}", headroom_rates(1e9 / e2e_ns));
    let _ = writeln!(
        out.text,
        "trace.reconcile_ratio {reconcile:.3} = fine layers {fine_sum:.1} ns/cell / untraced \
         {e2e_ns:.1} ns/cell"
    );
    if reconcile < RECONCILE_BAND.0 || reconcile > RECONCILE_BAND.1 {
        let _ = writeln!(
            out.text,
            "  unexplained remainder {:.1} ns/cell: work the real path does and the replay does \
             not time — driver descriptor reclaim and interrupt coalescing, NIC event queues, \
             the transmit-side CAM check — and cache effects of running the layers interleaved \
             rather than batched",
            e2e_ns - fine_sum
        );
    }
    let host_sum: f64 = rows
        .iter()
        .filter(|(l, _)| l.is_host())
        .map(|(_, v)| v)
        .sum();
    let app = [Layer::AppBuild, Layer::AppVerify, Layer::AalSegment]
        .iter()
        .map(|&l| host[l as usize])
        .sum::<f64>();
    let _ = writeln!(
        out.text,
        "real path: host.* {host_sum:.1} + application {app:.1} = {:.1} of {traced_ns:.1} \
         ns/cell of traced loop time",
        host_sum + app
    );
    let _ = writeln!(
        out.text,
        "trace.overhead {} (traced {traced_ns:.1} vs untraced {e2e_ns:.1} ns/cell; A/A noise \
         floor {:.1}%)",
        overhead_text(overhead, noise),
        noise * 100.0
    );
    write_spans(w, opts, &rec_real, &rec, out);
}

/// An overhead as a percentage, or "noise" when inside the noise floor.
pub fn overhead_text(overhead: f64, noise: f64) -> String {
    if overhead.abs() <= noise {
        "noise".to_string()
    } else {
        format!("{:+.1}%", overhead * 100.0)
    }
}

/// Write both recorders' spans to `<out>/<workload>.spans.jsonl`.
fn write_spans(
    w: &NicWorkload,
    opts: &Options,
    real: &Recorder,
    replay: &Recorder,
    out: &mut Outcome,
) {
    let path = opts.out_dir.join(format!("{}.spans.jsonl", w.name));
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        real.write_jsonl("real", &mut f)?;
        replay.write_jsonl("replay", &mut f)?;
        std::io::Write::flush(&mut f)
    });
    match written {
        Ok(()) => {
            let _ = writeln!(out.text, "spans written to {}", path.display());
        }
        Err(e) => out.check(&format!("spans written to {} ({e})", path.display()), false),
    }
}
