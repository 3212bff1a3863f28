//! The `sim-report` workload: regenerate the experiments as `report all`
//! does, and time the simulators' own speed.
//!
//! The simulators model the interface in simulated cycles; this times
//! how fast they run on the host. Nothing here touches the byte path,
//! so a change to the NIC layers should leave every figure unchanged.

use crate::nicrun::overhead_text;
use crate::report::{Outcome, Tally};
use crate::stats::{hash_bytes, median, mix64, peak_rss_mb};
use crate::Options;
use hni_aal::AalType;
use hni_atm::VcId;
use hni_bench::{run_experiment, EXPERIMENT_IDS};
use hni_core::e2esim::{run_e2e, run_e2e_instrumented, run_e2e_profiled};
use hni_core::{greedy_workload, run_rx, run_tx, RxConfig, RxWorkload, TxConfig};
use hni_sim::{Duration, Rng};
use hni_sonet::LineRate;
use hni_telemetry::{CycleProfiler, VecTracer};
use hni_transport::{run_transport, TransportConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Timed passes every run makes at least.
const MIN_PASSES: usize = 2;
/// Seconds of samples each simulator probe collects at full scale.
const PROBE_SECONDS: f64 = 0.5;
/// R-F3's propagation delay (about 1 km of fibre).
const PROPAGATION: Duration = Duration::from_us(5);

/// Run `sim-report` as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    // A reduced run regenerates the first ids only.
    let n_ids = ((EXPERIMENT_IDS.len() as f64 * opts.scale).round() as usize)
        .clamp(1, EXPERIMENT_IDS.len());
    let ids = &EXPERIMENT_IDS[..n_ids];
    let _ = writeln!(
        out.text,
        "sim-report: {} experiments, one warm-up pass then timed passes for {:.0} s, \
         HNI_JOBS={}, order shuffled per pass by seed {}",
        ids.len(),
        opts.seconds,
        std::env::var("HNI_JOBS").unwrap_or_else(|_| "unset".into()),
        opts.seed
    );

    let (warm, _) = pass(ids, None);
    let want = digest(&warm);
    let mut rng = Rng::new(mix64(opts.seed));
    let mut per_id: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut totals = Vec::new();
    let mut mismatched = 0u64;
    let start = Instant::now();
    while totals.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let (outputs, times) = pass(ids, Some(&mut rng));
        if digest(&outputs) != want {
            mismatched += 1;
        }
        for (v, t) in per_id.iter_mut().zip(&times) {
            v.push(*t);
        }
        totals.push(times.iter().sum::<f64>());
    }
    out.attempted = (ids.len() * (totals.len() + 1)) as u64;
    out.failed = mismatched * ids.len() as u64;
    out.check("every pass's output is byte-identical", mismatched == 0);
    out.tally = Tally {
        offered: ids.len() as u64,
        delivered: ids.len() as u64,
        bad: 0,
        digest: want,
        reassembly_failures: None,
    };
    let _ = writeln!(
        out.text,
        "{} timed passes; report digest {want:016x}",
        totals.len()
    );

    if !opts.trace {
        out.metric("report_all_s", "s", median(&totals));
        out.metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN));
        return out;
    }

    let mut sum_ms = 0.0;
    for (id, v) in ids.iter().zip(&per_id) {
        let ms = median(v) * 1e3;
        sum_ms += ms;
        out.metric(&format!("exp.{id}_ms"), "ms", ms);
    }
    let _ = writeln!(
        out.text,
        "sum of per-experiment medians {:.1} ms vs median pass {:.1} ms",
        sum_ms,
        median(&totals) * 1e3
    );
    probes(opts.scale.min(1.0) * PROBE_SECONDS, &mut out);
    out
}

/// Regenerate every id once, in shuffled order when `rng` is given.
/// Returns the outputs and wall seconds in `ids` order.
fn pass(ids: &[&str], rng: Option<&mut Rng>) -> (Vec<String>, Vec<f64>) {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    if let Some(rng) = rng {
        rng.shuffle(&mut order);
    }
    let mut outputs = vec![String::new(); ids.len()];
    let mut times = vec![0.0; ids.len()];
    for i in order {
        let t0 = Instant::now();
        outputs[i] = run_experiment(ids[i]).expect("every listed id runs");
        times[i] = t0.elapsed().as_secs_f64();
    }
    (outputs, times)
}

fn digest(outputs: &[String]) -> u64 {
    outputs
        .iter()
        .fold(0, |h, o| mix64(h ^ hash_bytes(o.as_bytes())))
}

/// Call `f` until `seconds` of samples exist (at least three); each
/// sample is simulated cells per wall-second.
fn rate_samples(seconds: f64, mut f: impl FnMut() -> u64) -> Vec<f64> {
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let cells = f();
        v.push(cells as f64 / t0.elapsed().as_secs_f64());
    }
    v
}

/// The simulator speed probes and the real-run probe overheads.
fn probes(seconds: f64, out: &mut Outcome) {
    let tx = TxConfig::paper(LineRate::Oc12);
    let rx = RxConfig::paper(LineRate::Oc12);
    let pkts = greedy_workload(20, 9180, VcId::new(0, 32));
    let rx_wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 5, 9180, 1.0);
    let mut transport = TransportConfig::paper(LineRate::Oc12);
    transport.frames_per_vc = 1600;

    let txr = rate_samples(seconds, || run_tx(&tx, &pkts).cells_sent);
    out.metric("txsim.cells_per_s", "cells/s", median(&txr));
    let rxr = rate_samples(seconds, || run_rx(&rx, &rx_wl).cells_offered);
    out.metric("rxsim.cells_per_s", "cells/s", median(&rxr));
    let e2e = rate_samples(seconds, || {
        run_e2e(&tx, &rx, &pkts, PROPAGATION).tx.cells_sent
    });
    out.metric("e2esim.cells_per_s", "cells/s", median(&e2e));
    let tr = rate_samples(seconds, || run_transport(&transport).ledger.injected);
    out.metric("transport.cells_per_s", "cells/s", median(&tr));

    // Probes on vs off on the same run, sampled alternately so drift
    // hits both sides alike.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut profiled = Vec::new();
    let start = Instant::now();
    while plain.len() < 5 || start.elapsed().as_secs_f64() < 2.0 * seconds {
        plain.extend(rate_samples(0.0, || {
            run_e2e(&tx, &rx, &pkts, PROPAGATION).tx.cells_sent
        }));
        traced.extend(rate_samples(0.0, || {
            let mut t = VecTracer::new();
            run_e2e_instrumented(&tx, &rx, &pkts, PROPAGATION, &mut t)
                .tx
                .cells_sent
        }));
        profiled.extend(rate_samples(0.0, || {
            let mut p = CycleProfiler::new();
            run_e2e_profiled(&tx, &rx, &pkts, PROPAGATION, &mut p)
                .tx
                .cells_sent
        }));
    }
    let base = median(&plain);
    // A/A noise floor: how far the median moves between the odd and
    // the even samples of the same unprobed run.
    let half = |parity: usize| -> f64 {
        median(
            &plain
                .iter()
                .skip(parity)
                .step_by(2)
                .copied()
                .collect::<Vec<_>>(),
        )
    };
    let noise = (half(0) - half(1)).abs() / base;
    let trace_oh = base / median(&traced) - 1.0;
    let prof_oh = base / median(&profiled) - 1.0;
    out.metric("telemetry.trace_overhead", "ratio", trace_oh);
    out.metric("telemetry.profile_overhead", "ratio", prof_oh);
    let _ = writeln!(
        out.text,
        "probe overheads on run_e2e (R-F3 loaded, {} samples each; noise floor {:.1}%): \
         trace {} | profile {}",
        plain.len(),
        noise * 100.0,
        overhead_text(trace_oh, noise),
        overhead_text(prof_oh, noise)
    );
}
