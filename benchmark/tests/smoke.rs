//! Smoke test: every workload at about one hundredth of its full size.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`.

use hni_perfbench::json::{self, Value};
use hni_perfbench::report::Outcome;
use hni_perfbench::{run, Options};
use std::path::PathBuf;

/// Epoch scale per workload: about 1% of the SDUs the workload offers
/// in a full-length run.
fn scale(workload: &str) -> f64 {
    match workload {
        "nic-bulk" => 1.5,   // 300 SDUs
        "nic-small" => 0.75, // 12,000 SDUs
        "nic-mux" => 0.25,   // 1,000 SDUs
        _ => 0.05,           // one experiment
    }
}

fn opts(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: scale(workload),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out"),
    }
}

fn go(workload: &str, seed: u64, trace: bool) -> Outcome {
    let out = run(&opts(workload, seed, trace)).expect("known workload");
    assert!(out.correct(), "{workload} checks failed:\n{}", out.render());
    out
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to benchmark/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, section: &str) -> Vec<String> {
    doc.get(section)
        .expect("section present")
        .arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    for w in names(&doc, "workloads") {
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let out = go(&w, 3, trace);
            let line = json::parse(&out.json_line()).expect("result line parses");
            let keys: Vec<&str> = line.obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap();
            for spec in doc.get(section).unwrap().arr() {
                let name = spec.get("name").and_then(Value::str).unwrap();
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} --trace {trace}: {name} missing"));
                assert!(m.get("value").and_then(Value::num).is_some(), "{w}: {name}");
                assert_eq!(m.get("unit"), spec.get("unit"), "{w}: {name} unit");
            }
            assert_eq!(metrics.obj().len(), doc.get(section).unwrap().arr().len());
        }
    }
}

#[test]
fn offered_equals_delivered_plus_failed() {
    for w in ["nic-bulk", "nic-small", "nic-mux"] {
        let out = go(w, 4, true);
        let t = out.tally;
        let lost = (out.value("fail_frac").unwrap() * t.offered as f64).round() as u64;
        assert_eq!(t.bad, 0, "{w}: no delivery may fail its check");
        assert_eq!(t.offered, t.delivered + lost, "{w}");
        // Every lost SDU died in a frame the reassembler reported, and a
        // report can cover several SDUs (a lost end-of-frame cell merges
        // two frames), never none.
        let reports = t.reassembly_failures.unwrap();
        assert!(
            reports <= lost,
            "{w}: {reports} reports for {lost} lost SDUs"
        );
        assert_eq!(lost == 0, reports == 0, "{w}");
    }
}

#[test]
fn traced_frames_are_byte_identical_to_the_real_path() {
    for w in ["nic-bulk", "nic-small", "nic-mux"] {
        assert_eq!(go(w, 5, true).frames_identical, Some(true), "{w}");
    }
}

#[test]
fn same_seed_same_counts_other_seed_other_traffic() {
    for w in ["nic-bulk", "nic-small", "nic-mux", "sim-report"] {
        let a = go(w, 6, false).tally;
        let b = go(w, 6, false).tally;
        assert_eq!(a, b, "{w}: same seed");
        if w != "sim-report" {
            let c = go(w, 7, false).tally;
            assert_ne!(
                a.digest, c.digest,
                "{w}: another seed must change the traffic"
            );
        }
    }
}
