//! Cycle-profile a pipeline run and attribute its bottleneck.
//!
//! ```text
//! cargo run -p hni-bench --example profile_bottleneck [pkt_octets]
//! ```
//!
//! Runs the canonical transmit workload (paper split, OC-12, greedy
//! backlog) under a live `CycleProfiler`, then reduces the charges
//! three ways:
//!
//! 1. the utilization-ranked bottleneck attribution with implied
//!    throughput ceilings (what `report bottleneck r-f1` prints),
//! 2. the folded activity stacks (`report profile r-f1` — flamegraph
//!    food: `component;activity <ns>` per line),
//! 3. the Prometheus text exposition (`report prom r-f1`).

use hni_atm::VcId;
use hni_core::txsim::{greedy_workload, run_tx_full, TxConfig};
use hni_sonet::LineRate;
use hni_telemetry::{attribute, expfmt, CycleProfiler, NullTracer};

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("pkt_octets must be an integer"))
        .unwrap_or(9180);

    let cfg = TxConfig::paper(LineRate::Oc12);
    let mut prof = CycleProfiler::new();
    let wl = greedy_workload(20, len, VcId::new(0, 32));
    let report = run_tx_full(&cfg, &wl, &mut NullTracer, &mut prof);
    let profile = prof.snapshot(report.finished_at);

    println!(
        "profiled 20 × {len}-octet packets at OC-12 (paper split): \
         {:.1} Mb/s goodput over {:.1} µs\n",
        report.goodput_bps / 1e6,
        profile.span().as_us_f64()
    );

    let a = attribute(&profile, report.goodput_bps);
    println!("{}", a.render());

    println!("folded activity stacks (flamegraph input):");
    print!("{}", profile.folded_stacks());

    println!("\nPrometheus exposition (first 12 lines of `report prom r-f1`):");
    for line in expfmt::expose(&profile).lines().take(12) {
        println!("{line}");
    }
}
