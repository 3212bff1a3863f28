//! Structural golden tests for the report: every experiment's rendering
//! must keep its identifying header, its table shape, and the invariant
//! facts the evaluation narrative quotes. Guards against silent
//! rendering regressions (a renamed column, a dropped row) that unit
//! tests of the underlying numbers would not catch.

use hni_bench::{
    bottleneck_report, diff_report, exemplars_report, folded_report, hist_report,
    metrics_experiment, prom_report, run_experiment, sampled_trace_experiment, tail_report,
    topvc_report, trace_experiment, EXPERIMENT_IDS,
};

#[path = "support/digest.rs"]
mod digest;

/// FNV-1a-64 of every experiment's rendering. A refactor that claims
/// to keep behaviour must keep all twenty; a change that means to move
/// a number updates the entry and says why.
const REPORT_DIGESTS: [(&str, u64); 20] = [
    ("r-t1", 0xf55dbcbe2cb009d8),
    ("r-t2", 0xc1d1a3acc339c030),
    ("r-t3", 0x1809b72fcd384c72),
    ("r-t4", 0xfb79e4f1c1fb96c0),
    ("r-t5", 0xa0a89ea74a470e98),
    ("r-f1", 0x9f2d68025c4965a3),
    ("r-f2", 0x86b0cd71e98c0d08),
    ("r-f3", 0x3e827cb1f2aa4ae9),
    ("r-f4", 0x7f68a08023b73519),
    ("r-f5", 0xe4dffc1fbb3527e0),
    ("r-f6", 0x8bd3cbbc11e2560b),
    ("r-f7", 0x1a54452087f66730),
    ("r-f8", 0x40c14361ae6c2972),
    ("r-a1", 0xc786343fe3e28a29),
    ("r-a2", 0xc52d79b719188de8),
    ("r-o1", 0xb706e6aca362d70e),
    ("r-o2", 0xfe853d4b4a7cc8b7),
    ("r-r1", 0x22fb3cc45667700f),
    ("r-w1", 0x6f355aa2a1125294),
    // Footnote now names perfbench's `core.cam_lookup_ns` for wall-clock lookup cost.
    ("r-s1", 0x0ab2cf152ce3194b),
];

#[test]
fn all_experiments_render_with_headers_and_tables() {
    let mut digests = Vec::new();
    for id in EXPERIMENT_IDS {
        let out = run_experiment(id).unwrap_or_else(|| panic!("{id} missing"));
        assert!(
            out.starts_with(&id.to_uppercase()),
            "{id}: report must start with its id header"
        );
        assert!(out.contains("---"), "{id}: table separator missing");
        assert!(out.lines().count() >= 7, "{id}: suspiciously short");
        digests.push((id, digest::fnv1a64(out.as_bytes())));
    }
    let current: String = digests
        .iter()
        .map(|(id, d)| format!("    (\"{id}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        digests, REPORT_DIGESTS,
        "a rendering changed; current digests:\n{current}"
    );
}

/// FNV-1a-64 of every capability rendering, keyed by the `report`
/// arguments that print it. Same contract as [`REPORT_DIGESTS`].
const CAPABILITY_DIGESTS: [(&str, u64); 32] = [
    ("trace r-f1", 0x676a6ee5dda45058),
    ("trace r-f2", 0x040c1edc1066332e),
    // Traces the loaded 20 x 9180-octet run that `tail r-f3` indexes.
    ("trace r-f3", 0x11057a13fe15f534),
    ("trace r-w1", 0xc003c392a16145bd),
    ("trace r-f1 --sample 1024 --seed 7", 0xf738e6d414c9253c),
    // Dumped from the always-on plane, not derived from a trace.
    ("metrics r-f1", 0xfa830c87038ab2a0),
    ("metrics r-f2", 0x5b09cbf61313d1f9),
    ("metrics r-f3", 0x4d942b65e59fdc58),
    ("metrics r-w1", 0x6beb3efac724650c),
    ("profile r-f1", 0x67d0ef6ed7b914cc),
    ("profile r-f2", 0xbd9eca27b1bda256),
    ("profile r-f3", 0x44b56f4be4221b83),
    ("profile r-w1", 0xc797b28f37cd0b11),
    // The packet-size sweep appendix is gone; `report r-o1` prints it.
    ("bottleneck r-f1", 0xba042ac50fe9fdf1),
    ("bottleneck r-f2", 0x23a33efc800e2114),
    ("bottleneck r-f3", 0x8b5602525c237102),
    ("bottleneck r-w1", 0x2bb89ce85c802761),
    ("prom r-f1", 0xab026e6940a08109),
    ("prom r-f2", 0xd8a708bda6bfd3c3),
    ("prom r-f3", 0xfbc8a74dcbaa3ee5),
    ("prom r-w1", 0xc3e58b5afbd21394),
    ("hist r-f1", 0x75ed1f1a8de796f6),
    ("hist r-f2", 0xf7fba8982e0d4316),
    ("hist r-f3", 0x387c9fbf8e168acd),
    ("hist r-w1", 0x8a763701fd23b686),
    // Header line only: every rendering titles a run by its declaration.
    ("topvc r-f1", 0x3a33abecca47bcfb),
    ("topvc r-f2", 0x4b9ca224d4ad61c3),
    ("topvc r-f3", 0x41ae831e260993d4),
    ("topvc r-w1", 0xc525e734541e4042),
    // Header line only, as for topvc.
    ("tail r-f3", 0x96f299c55a4fcc7e),
    ("exemplars r-f3", 0x47cbe18d639ce9f0),
    ("diff r-f3 r-f3", 0x169dff89503aaf52),
];

/// What `report <args>` prints for one capability subcommand.
fn capability_rendering(args: &str) -> String {
    let words: Vec<&str> = args.split(' ').collect();
    let out = match words[..] {
        ["trace", id] => trace_experiment(id).map(|ev| hni_telemetry::jsonl::to_jsonl(&ev)),
        ["trace", id, "--sample", n, "--seed", s] => {
            sampled_trace_experiment(id, n.parse().unwrap(), s.parse().unwrap())
                .map(|ev| hni_telemetry::jsonl::to_jsonl(&ev))
        }
        ["metrics", id] => metrics_experiment(id),
        ["profile", id] => folded_report(id),
        ["bottleneck", id] => bottleneck_report(id),
        ["prom", id] => prom_report(id),
        ["hist", id] => hist_report(id),
        ["topvc", id] => topvc_report(id),
        ["tail", id] => tail_report(id),
        ["exemplars", id] => exemplars_report(id),
        ["diff", a, b] => diff_report(a, b).ok(),
        _ => panic!("no capability rendering for '{args}'"),
    };
    out.unwrap_or_else(|| panic!("'{args}' rendered nothing"))
}

/// Check the [`CAPABILITY_DIGESTS`] entries of the given subcommands.
fn assert_capabilities_pinned(subcommands: &[&str]) {
    let pinned: Vec<(&str, u64)> = CAPABILITY_DIGESTS
        .into_iter()
        .filter(|(args, _)| subcommands.contains(&args.split(' ').next().unwrap()))
        .collect();
    assert!(
        !pinned.is_empty(),
        "no pinned renderings for {subcommands:?}"
    );
    let digests: Vec<(&str, u64)> = pinned
        .iter()
        .map(|&(args, _)| (args, digest::fnv1a64(capability_rendering(args).as_bytes())))
        .collect();
    let current: String = digests
        .iter()
        .map(|(args, d)| format!("    (\"{args}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        digests, pinned,
        "a capability rendering changed; current digests:\n{current}"
    );
}

#[test]
fn trace_and_metrics_renderings_are_pinned() {
    assert_capabilities_pinned(&["trace", "metrics"]);
}

#[test]
fn profile_renderings_are_pinned() {
    assert_capabilities_pinned(&["profile", "bottleneck", "prom"]);
}

#[test]
fn histogram_and_heavy_hitter_renderings_are_pinned() {
    assert_capabilities_pinned(&["hist", "topvc", "diff"]);
}

#[test]
fn tail_anatomy_renderings_are_pinned() {
    assert_capabilities_pinned(&["tail", "exemplars"]);
}

#[test]
fn rt1_quotes_the_headline_budgets() {
    let out = run_experiment("r-t1").unwrap();
    assert!(out.contains("681.6 ns"), "OC-12 cell time");
    assert!(out.contains("2726.3 ns"), "OC-3 cell time");
    assert!(out.contains("17.7"), "25 MIPS OC-12 budget");
}

#[test]
fn rt2_quotes_the_partition_verdicts() {
    let out = run_experiment("r-t2").unwrap();
    for needle in ["all-software", "paper-split", "full-hardware", "yes", "no"] {
        assert!(out.contains(needle), "missing {needle}");
    }
}

#[test]
fn rf1_has_every_size_and_partition() {
    let out = run_experiment("r-f1").unwrap();
    for size in ["64", "9180", "65000"] {
        assert!(out.contains(size), "missing size {size}");
    }
    assert!(
        out.contains("link") && out.contains("engine"),
        "bottleneck column"
    );
}

#[test]
fn rt5_quotes_the_waterfall_endpoints() {
    let out = run_experiment("r-t5").unwrap();
    assert!(out.contains("622.1 Mb/s"));
    assert!(out.contains("599.0 Mb/s"));
    assert!(out.contains("540.4 Mb/s"));
}

#[test]
fn ra2_quotes_the_mips_minimums() {
    let out = run_experiment("r-a2").unwrap();
    assert!(out.contains("21.2"), "paper-split OC-12 minimum MIPS");
    assert!(out.contains("285.4"), "all-software OC-12 minimum MIPS");
}

#[test]
fn experiment_list_is_complete_and_ordered() {
    assert_eq!(EXPERIMENT_IDS.len(), 20);
    assert!(EXPERIMENT_IDS.starts_with(&["r-t1", "r-t2"]));
    assert!(EXPERIMENT_IDS.ends_with(&["r-w1", "r-s1"]));
}

#[test]
fn rw1_quotes_the_closed_loop_verdict() {
    let out = run_experiment("r-w1").unwrap();
    for needle in [
        "satellite",
        "Overload leg",
        "WAN leg",
        "retx",
        "golden verdict: PASS",
    ] {
        assert!(out.contains(needle), "missing {needle}:\n{out}");
    }
}

#[test]
fn rs1_quotes_the_scale_verdict() {
    let out = run_experiment("r-s1").unwrap();
    for needle in [
        "1000000",
        "B/idle VC",
        "probes/lookup",
        "golden verdict: PASS",
    ] {
        assert!(out.contains(needle), "missing {needle}:\n{out}");
    }
}

#[test]
fn rr1_quotes_the_policy_comparison() {
    let out = run_experiment("r-r1").unwrap();
    for needle in ["drop-tail", "EPD", "PPD", "pool demand", "cell loss"] {
        assert!(out.contains(needle), "missing {needle}");
    }
    // The collapse and the recovery must both be visible in the table:
    // drop-tail at zero in overload, graceful policies delivering.
    assert!(out.contains("0 b/s"), "drop-tail collapse missing");
    assert!(out.contains("Mb/s"), "graceful-policy goodput missing");
}

#[test]
fn ro2_quotes_the_blame_and_verdict() {
    let out = run_experiment("r-o2").unwrap();
    assert!(out.contains("baseline verdict"), "baseline row missing");
    assert!(out.contains("injected verdict"), "injected row missing");
    assert!(out.contains("deliver dma"), "planted stage missing");
    assert!(out.contains("analytic floor"), "cross-check missing");
    assert!(out.contains("PASS"), "machine check failed:\n{out}");
}

#[test]
fn ro1_quotes_the_saturation_order() {
    let out = run_experiment("r-o1").unwrap();
    assert!(out.contains("measured bottleneck"), "sweep tables missing");
    assert!(
        out.contains("saturates first"),
        "saturation-order statement missing"
    );
    assert!(out.contains("engine") && out.contains("link") && out.contains("bus"));
}
