//! Regenerate the evaluation: every table and figure, as text.
//!
//! ```text
//! cargo run -p hni-bench --bin report --release             # everything
//! cargo run -p hni-bench --bin report --release -- r-f1     # one experiment
//! cargo run -p hni-bench --bin report --release -- list     # ids + capabilities
//! cargo run -p hni-bench --bin report --release -- --trace r-f3      # JSONL trace
//! cargo run -p hni-bench --bin report --release -- trace r-f3 --sample 1024
//! cargo run -p hni-bench --bin report --release -- metrics r-f3      # metrics dump
//! cargo run -p hni-bench --bin report --release -- profile r-f1     # folded stacks
//! cargo run -p hni-bench --bin report --release -- bottleneck r-f1  # attribution
//! cargo run -p hni-bench --bin report --release -- prom r-f1        # Prometheus text
//! cargo run -p hni-bench --bin report --release -- hist r-f3        # latency bands
//! cargo run -p hni-bench --bin report --release -- topvc r-f2      # per-VC top-K
//! cargo run -p hni-bench --bin report --release -- tail r-f3       # tail blame table
//! cargo run -p hni-bench --bin report --release -- exemplars r-f3  # slowest packets
//! cargo run -p hni-bench --bin report --release -- diff r-f3 r-f3  # side-by-side
//! cargo run -p hni-bench --bin report --release -- promlint r-f1   # expfmt check
//! ```
//!
//! Every number here is simulated time, deterministic and golden. How
//! fast the implementation itself runs is the wall-clock benchmark's
//! job: `perfbench` in `benchmark/`, timed through two real `Nic`s and
//! broken down by layer (see benchmark/README.md).
//!
//! `trace` accepts `--sample <N>` (with optional `--seed <S>`) to thin
//! the JSONL deterministically — the kept set is a pure function of
//! each event's (vc, pkt, cell) identity, so it is byte-identical
//! across reruns and `HNI_JOBS` worker counts.
//!
//! Ids are case-insensitive and the hyphen is optional (`rf1` ≡ `r-f1`).

use hni_bench::{
    bottleneck_report, diff_report, exemplars_report, folded_report, hist_report,
    metrics_experiment, normalize_id, prom_report, run_experiment, sampled_trace_experiment,
    tail_report, topvc_report, trace_experiment, EXPERIMENT_IDS, HIST_IDS, PROFILE_IDS, TAIL_IDS,
    TOPVC_IDS, TRACEABLE_IDS,
};

/// Resolve `args[1]` as the id a capability subcommand operates on, or
/// exit 2 with a usage line naming the ids that support it.
fn capability_id_or_exit(args: &[String], what: &str, supported: &[&str]) -> String {
    match args.get(1) {
        Some(id) => normalize_id(id),
        None => {
            eprintln!("usage: report {what} <id>; supported ids: {supported:?}");
            std::process::exit(2);
        }
    }
}

/// Print a capability rendering, or exit 2 with the supported set.
fn print_or_exit(out: Option<String>, id: &str, what: &str, supported: &[&str]) {
    match out {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("experiment '{id}' does not support '{what}'; supported ids: {supported:?}");
            std::process::exit(2);
        }
    }
}

/// Parse `--flag <value>` as a number, exiting 2 on malformed input.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let idx = args.iter().position(|a| a == flag)?;
    match args.get(idx + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("{flag} needs a numeric value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("all") => {
            for id in EXPERIMENT_IDS {
                println!("{}", "=".repeat(78));
                println!("{}", run_experiment(id).expect("known id"));
            }
        }
        Some("list") => {
            for id in EXPERIMENT_IDS {
                let mut caps = Vec::new();
                if TRACEABLE_IDS.contains(&id) {
                    caps.extend(["trace", "metrics"]);
                }
                if PROFILE_IDS.contains(&id) {
                    caps.extend(["profile", "bottleneck", "prom"]);
                }
                if HIST_IDS.contains(&id) {
                    caps.push("hist");
                }
                if TOPVC_IDS.contains(&id) {
                    caps.push("topvc");
                }
                if TAIL_IDS.contains(&id) {
                    caps.extend(["tail", "exemplars"]);
                }
                if caps.is_empty() {
                    println!("{id}");
                } else {
                    println!("{id}  [{}]", caps.join(" "));
                }
            }
        }
        Some("--trace" | "trace") => {
            let id = capability_id_or_exit(&args, "trace", &TRACEABLE_IDS);
            let events = match flag_value::<u64>(&args, "--sample") {
                Some(one_in) => {
                    let seed = flag_value::<u64>(&args, "--seed").unwrap_or(0);
                    sampled_trace_experiment(&id, one_in, seed)
                }
                None => trace_experiment(&id),
            };
            print_or_exit(
                events.map(|ev| hni_telemetry::jsonl::to_jsonl(&ev)),
                &id,
                "trace",
                &TRACEABLE_IDS,
            );
        }
        Some("metrics") => {
            let id = capability_id_or_exit(&args, "metrics", &TRACEABLE_IDS);
            print_or_exit(metrics_experiment(&id), &id, "metrics", &TRACEABLE_IDS);
        }
        Some("profile") => {
            let id = capability_id_or_exit(&args, "profile", &PROFILE_IDS);
            print_or_exit(folded_report(&id), &id, "profile", &PROFILE_IDS);
        }
        Some("bottleneck") => {
            let id = capability_id_or_exit(&args, "bottleneck", &PROFILE_IDS);
            print_or_exit(bottleneck_report(&id), &id, "bottleneck", &PROFILE_IDS);
        }
        Some("prom") => {
            let id = capability_id_or_exit(&args, "prom", &PROFILE_IDS);
            print_or_exit(prom_report(&id), &id, "prom", &PROFILE_IDS);
        }
        Some("hist") => {
            let id = capability_id_or_exit(&args, "hist", &HIST_IDS);
            print_or_exit(hist_report(&id), &id, "hist", &HIST_IDS);
        }
        Some("topvc") => {
            let id = capability_id_or_exit(&args, "topvc", &TOPVC_IDS);
            print_or_exit(topvc_report(&id), &id, "topvc", &TOPVC_IDS);
        }
        Some("tail") => {
            let id = capability_id_or_exit(&args, "tail", &TAIL_IDS);
            print_or_exit(tail_report(&id), &id, "tail", &TAIL_IDS);
        }
        Some("exemplars") => {
            let id = capability_id_or_exit(&args, "exemplars", &TAIL_IDS);
            print_or_exit(exemplars_report(&id), &id, "exemplars", &TAIL_IDS);
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: report diff <a> <b>; ids with histograms: {HIST_IDS:?}");
                std::process::exit(2);
            };
            match diff_report(&normalize_id(a), &normalize_id(b)) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("report diff: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("promlint") => {
            // Run every live exposition the id supports (`prom` profile
            // gauges, `hist` histogram families) through the expfmt
            // conformance validator; exit 2 on the first violation.
            let id = capability_id_or_exit(&args, "promlint", &PROFILE_IDS);
            let mut checked = 0usize;
            if let Some(text) = prom_report(&id) {
                lint_or_exit(&id, "prom", &text);
                checked += 1;
            }
            if let Some(out) = hist_report(&id) {
                // The hist report is a table followed by the exposition.
                if let Some(start) = out.find("# HELP") {
                    lint_or_exit(&id, "hist", &out[start..]);
                    checked += 1;
                }
            }
            if let Some(out) = tail_report(&id) {
                // Likewise: blame table, then the tail-share gauges.
                if let Some(start) = out.find("# HELP") {
                    lint_or_exit(&id, "tail", &out[start..]);
                    checked += 1;
                }
            }
            if checked == 0 {
                eprintln!(
                    "experiment '{id}' exposes no Prometheus text; supported ids: {PROFILE_IDS:?}"
                );
                std::process::exit(2);
            }
            println!("promlint {id}: {checked} exposition(s) conformant");
        }
        Some(id) => match run_experiment(&normalize_id(id)) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment '{id}'; try: list");
                std::process::exit(2);
            }
        },
    }
}

/// Validate one exposition body, exiting 2 with the violations if it
/// fails conformance.
fn lint_or_exit(id: &str, which: &str, text: &str) {
    if let Err(violations) = hni_telemetry::expfmt::validate(text) {
        eprintln!(
            "promlint {id} ({which}): {} violation(s):",
            violations.len()
        );
        for v in violations {
            eprintln!("  - {v}");
        }
        std::process::exit(2);
    }
}
