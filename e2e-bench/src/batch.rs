//! The batch harness shared by the simulated workloads: passes of cells
//! over `scenario::Runner`, output checks, and the metrics both report.
//!
//! One pass runs every cell of the workload's fixed, seed-generated cell
//! list once. The first pass's wall time fixes how many passes the run
//! makes: as many as fill the measured time, rounded, and at least two.
//! Fixing the count up front keeps a run on a slower host from also
//! getting fewer executions of each cell to take its fastest from.
//!
//! Every pass repeats identical, deterministic work, so a cell's
//! execution times differ only by how much the host disturbed them. On a
//! shared host that disturbance comes in slow periods lasting seconds to
//! minutes (neighbours' cache and memory traffic: an ALU-only loop keeps
//! its speed while a DRAM pointer chase slows up to 2.8x), long enough to
//! cover a whole pass. The timings therefore come from each cell's
//! fastest execution and the fastest pass: the least-disturbed
//! measurement of the same work, which a median over three or four
//! passes is not. A traced run alternates untraced and traced passes:
//! the untraced ones give the end-to-end numbers and the traced ones the
//! per-layer numbers, and the gap between the two is the tracing
//! overhead.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use scenario::{RunPlan, Runner};

use crate::counts::Counts;
use crate::fingerprint;
use crate::ledger::Ledger;
use crate::probes::{codec_probe, Mix};
use crate::report::{median, peak_rss_mb, percentile, ratio, Metric, Outcome};
use crate::spans::Spans;
use crate::Args;

/// Set-up repetitions timed before each pass (`setup_s` is their median).
const SETUPS_PER_PASS: usize = 5;

/// What evaluating one cell produced.
#[derive(Debug)]
pub struct CellOut {
    /// The exact-value line this cell must reproduce.
    pub fingerprint: String,
    /// Any further check the workload applies (e.g. corpus replay).
    pub check: Result<(), String>,
    /// Simulated seconds the cell covered.
    pub horizon_s: f64,
    /// The cell's work counts.
    pub counts: Counts,
    /// Spans recorded while evaluating it (empty when untraced).
    pub spans: Spans,
}

/// The workload-specific inputs to [`run`].
pub struct BatchSpec {
    /// Cells per pass.
    pub cells: usize,
    /// Set-up times (s) measured before the harness runs; it adds more.
    pub setup_s: Vec<f64>,
    /// Genome breeding times (µs), when the workload breeds genomes.
    pub genome_us: Vec<f64>,
    /// Context lines for the report.
    pub header: Vec<String>,
    /// Layers not on this workload's path.
    pub absent: &'static [&'static str],
}

struct Pass {
    wall: Duration,
    traced: bool,
    cells: Vec<(CellOut, Duration)>,
}

/// Runs passes of `eval` over cells `0..spec.cells`, timing `set_up`
/// repetitions before each pass; checks every cell against the committed
/// fingerprint (or, for a seed without one, the first pass) and builds
/// the report.
///
/// # Errors
///
/// Fails when fingerprints cannot be read or written, or spans cannot be
/// saved.
pub fn run<S, F>(args: &Args, mut spec: BatchSpec, set_up: S, eval: F) -> Result<Outcome, String>
where
    S: Fn() -> Result<(), String>,
    F: Fn(usize, Spans) -> CellOut + Sync,
{
    let workload = args.workload.name();
    let epoch = Instant::now();
    // One worker per core.
    let runner = Runner::new(0);
    let plan = RunPlan::with_seeds((0..spec.cells).map(|i| (i, 0)));
    let mut passes: Vec<Pass> = Vec::new();
    let mut total = usize::MAX;
    while passes.len() < total {
        // Set-up takes a fraction of a millisecond, so one burst of
        // repetitions would sample the host's speed at a single instant;
        // repeating it before every pass spreads the samples over the run.
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            set_up()?;
            spec.setup_s.push(t.elapsed().as_secs_f64());
        }
        let traced = args.trace && passes.len() % 2 == 1;
        let t = Instant::now();
        let cells = runner.run(&plan, |cell| {
            let spans = if traced { Spans::on(epoch) } else { Spans::off(epoch) };
            let t = Instant::now();
            let out = eval(cell.param, spans);
            (out, t.elapsed())
        });
        let wall = t.elapsed();
        passes.push(Pass { wall, traced, cells });
        if passes.len() == 1 {
            total = ((args.seconds.as_secs_f64() / wall.as_secs_f64()).round() as usize).max(2);
        }
    }

    let mut outcome = Outcome { header: spec.header, ..Outcome::default() };
    let first: Vec<String> = passes[0].cells.iter().map(|(c, _)| c.fingerprint.clone()).collect();
    let expected = if args.bless {
        let p = fingerprint::save(workload, args.seed, &first)?;
        outcome.header.push(format!("blessed {}", p.display()));
        first
    } else if let Some(lines) = fingerprint::load(workload, args.seed)? {
        outcome.header.push(format!("checked against committed fingerprint (seed {})", args.seed));
        lines
    } else {
        outcome.header.push(format!(
            "no committed fingerprint for seed {}: passes checked against the first pass",
            args.seed
        ));
        first
    };
    outcome.check(expected.len() == spec.cells, || {
        format!("fingerprint has {} lines for {} cells", expected.len(), spec.cells)
    });
    for (p, pass) in passes.iter().enumerate() {
        for (i, (cell, _)) in pass.cells.iter().enumerate() {
            let want = expected.get(i).map(String::as_str).unwrap_or("<missing>");
            let matches = cell.fingerprint == want;
            let ok = matches && cell.check.is_ok();
            outcome.check(ok, || match &cell.check {
                Err(e) => format!("pass {p} cell {i}: {e}"),
                Ok(()) => format!("pass {p} cell {i}: got `{}`, want `{want}`", cell.fingerprint),
            });
        }
    }

    let (untraced, traced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| !p.traced);
    let sim_s: f64 = passes[0].cells.iter().map(|(c, _)| c.horizon_s).sum();
    // The fastest pass and each cell's fastest execution: the passes and
    // executions a slow period of the host did not stretch (module notes).
    let wall_min = fastest(untraced.iter().map(|p| p.wall));
    let cells_per_s = spec.cells as f64 / wall_min;
    let cell_s: Vec<f64> =
        (0..spec.cells).map(|i| fastest(untraced.iter().map(|p| p.cells[i].1))).collect();
    let busy_u: f64 =
        untraced.iter().flat_map(|p| p.cells.iter().map(|(_, d)| d.as_secs_f64())).sum();
    let (p50, p90) = (median(&cell_s), percentile(&cell_s, 90.0));
    let (k, n_u) = (cell_s.len(), untraced.len());
    let setup = median(&spec.setup_s);
    let rss = peak_rss_mb()?;
    let walls: Vec<String> =
        passes.iter().map(|p| format!("{:.3}", p.wall.as_secs_f64())).collect();
    outcome.header.push(format!(
        "{} cells/pass, {} pass(es) untraced + {} traced (walls {} s), jobs {} (nproc {})",
        spec.cells,
        untraced.len(),
        traced.len(),
        walls.join(" "),
        runner.jobs().min(spec.cells),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));
    outcome.end_to_end = vec![
        Metric::new("setup_s", "s", setup, format!("median of {} set-ups", spec.setup_s.len())),
        Metric::new(
            "ops_per_s",
            "1/s",
            cells_per_s,
            format!("cells per second, fastest of {n_u} passes"),
        ),
        Metric::new(
            "op_p50_ms",
            "ms",
            p50 * 1e3,
            format!("host time per cell, {k} cells, each the fastest of {n_u}"),
        ),
        Metric::new(
            "op_p90_ms",
            "ms",
            p90 * 1e3,
            format!("host time per cell, {k} cells, each the fastest of {n_u}"),
        ),
        Metric::new("peak_rss_mb", "MB", rss, "VmHWM"),
    ];
    outcome.detail = vec![
        Metric::new("setup_first_s", "s", spec.setup_s[0], "the run's first, cold set-up"),
        Metric::new("cells_per_s", "1/s", cells_per_s, format!("fastest of {n_u} passes")),
        Metric::new(
            "sim_s_per_s",
            "s/s",
            sim_s / wall_min,
            format!("{sim_s:.0} simulated s per pass, fastest pass"),
        ),
        Metric::new("cell_p50_s", "s", p50, format!("{k} cells, each the fastest of {n_u}")),
        Metric::new("cell_p90_s", "s", p90, format!("{k} cells, each the fastest of {n_u}")),
    ];

    if args.trace {
        let counts = passes[0].cells.iter().fold(Counts::default(), |mut acc, (c, _)| {
            acc.add(&c.counts);
            acc
        });
        let mut spans = Spans::on(epoch);
        let (mut busy_t, mut wall_t, mut events_t) = (0.0, 0.0, 0u64);
        for p in &traced {
            wall_t += p.wall.as_secs_f64();
            for (c, d) in &p.cells {
                busy_t += d.as_secs_f64();
                events_t += c.counts.events;
                spans.absorb(&c.spans);
            }
        }
        let jobs = runner.jobs().min(spec.cells) as f64;
        let passes_t = traced.len() as f64;
        let mix = Mix::from_counts(&counts);
        // Front-end flushes seal their responses as one batch per client
        // run; the rest (quorum fan-out included: its frames go to distinct
        // nodes) seal one frame at a time.
        let responses = mix.serve + mix.attest;
        let batch = ratio(responses as f64, counts.batches as f64).round() as usize;
        let codec = codec_probe(&mix.messages(4096), batch, 9)?;
        let busy_per_pass = busy_t / passes_t;
        let crypto_s = codec.crypto_s(counts.sent, responses);
        let ms = |name: &str| {
            let d = spans.durations(name);
            (median(&d) / 1e6, d.len())
        };
        let ledger = Ledger {
            counts,
            sim_ns_per_event: ratio(spans.total_ns("sim.run_until") as f64, events_t as f64),
            build_ms: ms("scenario.build"),
            runner_idle_frac: ratio(jobs * wall_t - busy_t, jobs * wall_t),
            score_ms: ms("search.score"),
            genome_us: (median(&spec.genome_us), spec.genome_us.len()),
            crypto_share: (
                ratio(crypto_s, busy_per_pass),
                format!(
                    "{} frames ({responses} batch-sealed) x (seal+open) / {busy_per_pass:.3} s \
                     busy per pass",
                    counts.sent
                ),
            ),
            codec,
            trace_overhead_frac: (
                ratio(busy_t / passes_t, busy_u / untraced.len() as f64) - 1.0,
                format!(
                    "busy per pass, {} traced vs {} untraced passes",
                    traced.len(),
                    untraced.len()
                ),
            ),
            absent: spec.absent,
            ..Ledger::default()
        };
        outcome.per_layer = ledger.metrics();
        let path = spans_path(workload, args.seed);
        spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.header.push(format!("{} spans written to {}", spans.len(), path.display()));
    }
    Ok(outcome)
}

/// The shortest of `times`, in seconds (0 for none).
fn fastest(times: impl Iterator<Item = Duration>) -> f64 {
    times.min().map_or(0.0, |d| d.as_secs_f64())
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-seed-{seed}.spans.jsonl"))
}
