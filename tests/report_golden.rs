//! Structural golden tests for the report: every experiment's rendering
//! must keep its identifying header, its table shape, and the invariant
//! facts the evaluation narrative quotes. Guards against silent
//! rendering regressions (a renamed column, a dropped row) that unit
//! tests of the underlying numbers would not catch.

use hni_bench::{run_experiment, EXPERIMENT_IDS};

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
    ("r-s1", 0x33b1be5d8f4fc3f7),
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
