//! Metric values, summary statistics, and the output format.

use stats::Cdf;

use crate::Args;

/// One named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Human-readable provenance: sample count, base of a ratio, or why
    /// the layer reads zero on this workload.
    pub note: String,
}

impl Metric {
    /// A metric with a provenance note.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Metric { name, unit, value, note: note.into() }
    }

    /// A count metric (unit `count`).
    pub fn count(name: &'static str, value: u64) -> Self {
        Metric::new(name, "count", value as f64, "")
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells run, or round trips issued).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Context lines printed before the metrics.
    pub header: Vec<String>,
    /// End-to-end metrics (the `--trace 0` JSON payload).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end readings printed for humans only:
    /// the workload's own names (`cells_per_s`, `rtt_p50_us`, ...) and
    /// `failed_frac`.
    pub detail: Vec<Metric>,
    /// Per-layer ledger (the `--trace 1` JSON payload; empty untraced).
    pub per_layer: Vec<Metric>,
    /// Failure descriptions (printed to stderr).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Prints the human-readable report and, last, the JSON line.
    pub fn print(&self, args: &Args) {
        for f in &self.failures {
            eprintln!("FAILED: {f}");
        }
        println!(
            "workload {} seed {} trace {}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        for line in &self.header {
            println!("  {line}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let mut sections = vec![("end-to-end", &self.end_to_end), ("detail", &self.detail)];
        if args.trace {
            sections.push(("per-layer", &self.per_layer));
        }
        for (title, metrics) in sections {
            println!("  [{title}]");
            for m in metrics.iter() {
                println!("    {:<28} {:>16} {:<6} {}", m.name, fmt_value(m.value), m.unit, m.note);
            }
        }
        println!(
            "    {:<28} {:>16} {:<6} {} failed of {} attempted",
            "failed_frac",
            fmt_value(failed_frac),
            "frac",
            self.failed,
            self.attempted
        );
        let payload = if args.trace { &self.per_layer } else { &self.end_to_end };
        let metrics: Vec<String> = payload
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// keeps. Non-finite values cannot occur for well-formed inputs (every
/// ratio guards its base); they are printed as 0 rather than emitting
/// invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Cdf::from_samples(samples.iter().copied()).percentile(p)
    }
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
