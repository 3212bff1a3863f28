//! What one workload run reports: metrics with units, output checks,
//! a human summary, and the one-line JSON result.

use std::fmt::Write as _;

/// One measured figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What one epoch (or regeneration pass) produced; repeats exactly for
/// a given seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// SDUs (or experiments) offered.
    pub offered: u64,
    /// Of those, delivered and verified.
    pub delivered: u64,
    /// Deliveries that failed a check.
    pub bad: u64,
    /// Digest of what was delivered, in order.
    pub digest: u64,
    /// Traced runs: frames the receiver's reassembler reported failed.
    pub reassembly_failures: Option<u64>,
}

/// The result of running one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations (SDUs, or experiment regenerations) attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Human-readable summary lines.
    pub text: String,
    /// Counts and digests that must repeat exactly for a given seed.
    pub tally: Tally,
    /// Traced runs: whether the replay's frames and digest matched the
    /// real path's.
    pub frames_identical: Option<bool>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record an output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The printed report: summary, every metric with its unit, every
    /// check.
    pub fn render(&self) -> String {
        let mut s = self.text.clone();
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<30} {:>16} {}", m.name, fmt_value(m.value), m.unit);
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(s, "  [{}] {what}", if *ok { "ok" } else { "FAIL" });
        }
        s
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A number for human eyes: enough digits to compare runs.
fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit Rust prints for the `f64`; JSON has
/// no NaN or infinity, so those become `null` (and fail `correct`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
