//! # e2e-bench — the repository benchmark
//!
//! One command runs one workload for a fixed number of seconds, checks
//! every output it produced, and prints its metrics. The last line of
//! standard output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones (measured with
//! tracing off); with `--trace 1` they are the per-layer ledger, taken
//! from spans the benchmark records around its own calls into each layer
//! plus count-shaped probes of the crypto, wire and scheduler layers.
//! The lines before the JSON restate the numbers for a human reader,
//! including the ones the JSON keeps implicit (`failed_frac`,
//! `sim_s_per_s`) and every sample count.
//!
//! Usage:
//!
//! ```text
//! e2e-bench --workload <search-eval|protocol-long|live-serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! `--bless` rewrites the committed fingerprint file for `--seed` from
//! this run instead of checking against it (search-eval and
//! protocol-long only); use it only when the simulator's behaviour is
//! meant to change.
//!
//! See `README.md` next to this file for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

mod batch;
mod counts;
mod fingerprint;
mod ledger;
mod live_serve;
mod probes;
mod protocol_long;
mod report;
mod search_eval;
mod spans;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// The seed a bare invocation uses; fingerprints are committed for it.
pub const DEFAULT_SEED: u64 = 1;
/// A second fingerprinted seed that no tuning ever looked at, so a later
/// claim can be re-checked on inputs nobody optimised against.
pub const HELD_OUT_SEED: u64 = 7919;

/// One benchmark invocation, validated.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed always generates the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Rewrite the fingerprint file instead of checking against it.
    pub bless: bool,
}

/// The benchmark's workloads (names are stable; other documents cite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E23's inner loop: adversary genomes through the scenario runner.
    SearchEval,
    /// Paper-figure-shaped multi-hour protocol cells, one per core.
    ProtocolLong,
    /// A closed loop of serve round trips over real loopback UDP.
    LiveServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "search-eval" => Some(Workload::SearchEval),
            "protocol-long" => Some(Workload::ProtocolLong),
            "live-serve" => Some(Workload::LiveServe),
            _ => None,
        }
    }

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchEval => "search-eval",
            Workload::ProtocolLong => "protocol-long",
            Workload::LiveServe => "live-serve",
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut bless = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("unparseable seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("unparseable seconds {v:?}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be in 1..=600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if bless && workload == Workload::LiveServe {
        return Err("live-serve has no fingerprints to bless".to_string());
    }
    Ok(Args { workload, seed, seconds: Duration::from_secs(seconds), trace, bless })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            eprintln!(
                "usage: e2e-bench --workload <search-eval|protocol-long|live-serve> --seed <n> \
                 --seconds <s> --trace <0|1> [--bless]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match args.workload {
        Workload::SearchEval => search_eval::run(&args),
        Workload::ProtocolLong => protocol_long::run(&args),
        Workload::LiveServe => live_serve::run(&args),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(&args);
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e-bench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
