//! Wall-clock benchmark of the byte-exact two-NIC data path and of
//! report regeneration. See `README.md` for the workloads, the metrics
//! and how to read them.

pub mod json;
pub mod nicpath;
pub mod nicrun;
pub mod replay;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod traffic;

use std::path::PathBuf;

/// The workloads `BENCHMARK.json` lists: the default run, in run order.
pub const WORKLOADS: [&str; 3] = ["nic-bulk", "nic-small", "nic-mux"];

/// Runnable by name only. It has none of the byte path's metrics, so it
/// is neither listed in `BENCHMARK.json` nor part of the default run.
pub const SIM_REPORT: &str = "sim-report";

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`], or [`SIM_REPORT`]).
    pub workload: String,
    /// Seed of the generated traffic.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Run traced: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Size of an epoch relative to the full workload (tests use ~0.01).
    pub scale: f64,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<report::Outcome, String> {
    if opts.workload == SIM_REPORT {
        return Ok(sim::run(opts));
    }
    traffic::nic_workloads()
        .iter()
        .find(|w| w.name == opts.workload)
        .map(|w| nicrun::run(w, opts))
        .ok_or_else(|| {
            format!(
                "unknown workload '{}' (expected one of {}, {SIM_REPORT})",
                opts.workload,
                WORKLOADS.join(", ")
            )
        })
}
