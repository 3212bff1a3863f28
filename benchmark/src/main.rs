//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] \
//!     [--json <file>] [--repeat <n>]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! report, then one JSON result line. Without it, runs every workload
//! `BENCHMARK.json` lists, each in its own process, one after another.
//! `--repeat N` runs each workload N times (seeds `seed .. seed+N`) and
//! prints each metric's median and quartiles. Exits 1 if any output
//! check fails, 2 on a usage error.
//!
//! Tools that read `BENCHMARK.json` call its command as
//! `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`,
//! so `--seconds` and the valued form of `--trace` are part of the
//! interface.

use hni_perfbench::json::{self, Value};
use hni_perfbench::stats::{quartiles, spread};
use hni_perfbench::{Options, SIM_REPORT, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Cli {
    opts: Options,
    json: Option<PathBuf>,
    repeat: Option<u32>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench [--workload {}|{SIM_REPORT}] [--seed N] [--seconds S] \
         [--trace [0|1]] [--json FILE] [--repeat N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        },
        json: None,
        repeat: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) && w != SIM_REPORT {
                    return Err(format!("unknown workload '{w}'"));
                }
                cli.opts.workload = w;
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    cli.opts.trace = false;
                }
                Some("1") => {
                    i += 1;
                    cli.opts.trace = true;
                }
                _ => cli.opts.trace = true,
            },
            "--json" => cli.json = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let n: u32 = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                cli.repeat = Some(n);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let code = match (cli.repeat, cli.opts.workload.is_empty()) {
        (Some(n), _) => repeat(&cli, n),
        (None, true) => run_all(&cli),
        (None, false) => run_one(&cli),
    };
    match code {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run one workload here; the report, then the JSON line, on stdout.
fn run_one(cli: &Cli) -> Result<bool, String> {
    // The simulator sweeps run on one worker thread, so the load comes
    // from one thread however many cores the host has. Set before any
    // thread exists.
    std::env::set_var("HNI_JOBS", "1");
    let out = hni_perfbench::run(&cli.opts)?;
    print!("{}", out.render());
    let line = out.json_line();
    println!("{line}");
    write_json(cli, &line)?;
    Ok(out.correct())
}

fn write_json(cli: &Cli, line: &str) -> Result<(), String> {
    match &cli.json {
        Some(path) => std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    }
}

/// Run `workload` with `seed` in a child process; returns its parsed
/// result line after echoing its report.
fn child(cli: &Cli, workload: &str, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.opts.seconds.to_string()]);
    if cli.opts.trace {
        cmd.arg("--trace");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload} result line: {e}"))
}

/// The fields of a result line the aggregates need.
struct Line {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

fn read_line(v: &Value) -> Line {
    Line {
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: v.get("attempted").and_then(Value::num).unwrap_or(0.0),
        failed: v.get("failed").and_then(Value::num).unwrap_or(0.0),
        metrics: v
            .get("metrics")
            .map(|m| {
                m.obj()
                    .iter()
                    .map(|(k, x)| {
                        let value = x.get("value").and_then(Value::num).unwrap_or(f64::NAN);
                        let unit = x.get("unit").and_then(Value::str).unwrap_or("").to_string();
                        (k.clone(), value, unit)
                    })
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// An aggregate JSON line: `<workload>/<metric>` keys.
fn aggregate_line(
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: &[(String, f64, String)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted.max(1.0),
        failed
    );
    for (i, (k, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        let _ = write!(s, "\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn selected(cli: &Cli) -> Vec<&str> {
    if cli.opts.workload.is_empty() {
        WORKLOADS.to_vec()
    } else {
        vec![cli.opts.workload.as_str()]
    }
}

/// Every workload, each in its own process, one after another.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in selected(cli) {
        let line = read_line(&child(cli, w, cli.opts.seed)?);
        correct &= line.correct;
        attempted += line.attempted;
        failed += line.failed;
        metrics.extend(
            line.metrics
                .into_iter()
                .map(|(k, v, u)| (format!("{w}/{k}"), v, u)),
        );
    }
    let line = aggregate_line(correct, attempted, failed, &metrics);
    println!("{line}");
    write_json(cli, &line)?;
    Ok(correct)
}

/// N runs per workload with seeds `seed..seed+N`; medians and quartiles.
fn repeat(cli: &Cli, n: u32) -> Result<bool, String> {
    let mut table = String::from("noise floor: metric, unit, median, q1, q3, (q3-q1)/median\n");
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut medians = Vec::new();
    for w in selected(cli) {
        let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..u64::from(n) {
            let line = read_line(&child(cli, w, cli.opts.seed + i)?);
            correct &= line.correct;
            attempted += line.attempted;
            failed += line.failed;
            for (k, v, unit) in line.metrics {
                match samples.iter_mut().find(|(name, _, _)| *name == k) {
                    Some((_, _, xs)) => xs.push(v),
                    None => samples.push((k, unit, vec![v])),
                }
            }
        }
        let _ = writeln!(table, "{w} ({n} runs, nproc {}):", nproc());
        for (k, unit, xs) in &samples {
            let (q1, m, q3) = quartiles(xs);
            let _ = writeln!(
                table,
                "  {k:<30} {unit:<8} {m:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%",
                spread(xs) * 100.0
            );
            medians.push((format!("{w}/{k}"), m, unit.clone()));
        }
    }
    print!("{table}");
    let line = aggregate_line(correct, attempted, failed, &medians);
    println!("{line}");
    write_json(cli, &line)?;
    Ok(correct)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
