//! Regenerate the evaluation: every table and figure, as text.
//!
//! ```text
//! cargo run -p hni-bench --bin report --release             # everything
//! cargo run -p hni-bench --bin report --release -- r-f1     # one experiment
//! cargo run -p hni-bench --bin report --release -- list     # ids + capabilities
//! cargo run -p hni-bench --bin report --release -- --trace r-f3      # JSONL trace
//! cargo run -p hni-bench --bin report --release -- trace r-f3 --sample 1024
//! cargo run -p hni-bench --bin report --release -- metrics r-f3      # always-on plane
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
//! Every capability subcommand renders an experiment's canonical run,
//! declared once in `hni_bench::EXPERIMENTS`. `report list` marks the
//! renderings each id's declaration offers; `diff` and `promlint`
//! accept any id that declares a run, and everything else exits 2
//! naming the ids that would work.
//!
//! `trace` accepts `--sample <N>` (with optional `--seed <S>`) to thin
//! the JSONL deterministically — the kept set is a pure function of
//! each event's (vc, pkt, cell) identity, so it is byte-identical
//! across reruns and `HNI_JOBS` worker counts.
//!
//! Ids are case-insensitive and the hyphen is optional (`rf1` ≡ `r-f1`).

use hni_bench::{
    diff_report, expositions, list_line, normalize_id, renderings, run_experiment,
    sampled_trace_experiment, EXPERIMENT_IDS, RENDERINGS,
};

/// Exit 2 with `message` and the ids whose canonical runs offer
/// `rendering`.
fn refuse(message: &str, rendering: &str) -> ! {
    let supported: Vec<&str> = EXPERIMENT_IDS
        .into_iter()
        .filter(|id| renderings(id).contains(&rendering))
        .collect();
    eprintln!("{message}; supported ids: {supported:?}");
    std::process::exit(2);
}

/// Resolve `args[1]` as the id a capability subcommand operates on, or
/// refuse with a usage line.
fn capability_id_or_exit(args: &[String], what: &str, rendering: &str) -> String {
    match args.get(1) {
        Some(id) => normalize_id(id),
        None => refuse(&format!("usage: report {what} <id>"), rendering),
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
                println!("{}", list_line(id));
            }
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                refuse("usage: report diff <a> <b>", "hist");
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
            // Run every live exposition the id renders through the
            // expfmt conformance validator; exit 2 on the first violation.
            let id = capability_id_or_exit(&args, "promlint", "prom");
            let Some(all) = expositions(&id) else {
                refuse(
                    &format!("experiment '{id}' exposes no Prometheus text"),
                    "prom",
                );
            };
            for (which, text) in &all {
                lint_or_exit(&id, which, text);
            }
            println!("promlint {id}: {} exposition(s) conformant", all.len());
        }
        Some(word) => {
            let name = if word == "--trace" { "trace" } else { word };
            let Some(&(name, render)) = RENDERINGS.iter().find(|(n, _)| *n == name) else {
                match run_experiment(&normalize_id(word)) {
                    Some(out) => println!("{out}"),
                    None => {
                        eprintln!("unknown experiment '{word}'; try: list");
                        std::process::exit(2);
                    }
                }
                return;
            };
            let id = capability_id_or_exit(&args, name, name);
            let sample = (name == "trace").then(|| flag_value::<u64>(&args, "--sample"));
            let out = match sample.flatten() {
                Some(one_in) => {
                    let seed = flag_value::<u64>(&args, "--seed").unwrap_or(0);
                    sampled_trace_experiment(&id, one_in, seed)
                        .map(|ev| hni_telemetry::jsonl::to_jsonl(&ev))
                }
                None => render(&id),
            };
            match out {
                Some(text) => print!("{text}"),
                None => refuse(
                    &format!("experiment '{id}' does not support '{name}'"),
                    name,
                ),
            }
        }
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
