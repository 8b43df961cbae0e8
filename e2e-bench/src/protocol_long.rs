//! `protocol-long`: the paper-figure shape, one cell per core.
//!
//! Multi-hour 3- and 5-node clusters with no serving layer, crossing the
//! base Triad node with the §V hardened node, Triad-like with
//! isolated-core AEX, and no attack with the F+ and F− calibration-delay
//! attacks; every cell also carries one planned hypervisor TSC rate
//! manipulation at mid-horizon. Each 600 simulated seconds carry only
//! 10–34k messages, so AEX timers, calibration sleeps, protocol machine
//! steps and trace series dominate: a crypto or serving optimisation
//! should not move this workload, and a trace-memory change shows here
//! in `peak_rss_mb`.
//!
//! Each cell runs alone on its worker, but the workers use every core:
//! on a shared host each core's speed wanders on its own, and a single
//! worker's timings inherit all of one core's wander (measured spreads
//! across runs were about 1.4 times those of the two-worker search-eval).

use std::time::Instant;

use attacks::{DelayAttackMode, PlannedManipulation};
use netsim::Addr;
use scenario::{derive_seed, AexSpec, AttackSpec, NodeImplSpec, ScenarioSpec};
use search::{score, FitnessTarget};
use sim::SimTime;
use tsc::TscManipulation;

use crate::batch::{self, BatchSpec, CellOut};
use crate::counts::Counts;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::Args;

/// Simulated seconds per cell (two hours).
const HORIZON_S: u64 = 7_200;
/// The planned manipulation: +200 ppm TSC rate on node 1, above the
/// §IV-A.1 monitor's 100 ppm threshold.
const MANIP_RATE: f64 = 1.0002;

struct Cell {
    label: String,
    spec: ScenarioSpec,
    seed: u64,
}

fn grid(seed: u64) -> Vec<Cell> {
    let horizon = SimTime::from_secs(HORIZON_S);
    let attacks = [
        ("none", None),
        ("f+", Some(DelayAttackMode::FPlus)),
        ("f-", Some(DelayAttackMode::FMinus)),
    ];
    let mut cells = Vec::new();
    for n in [3usize, 5] {
        for hardened in [false, true] {
            for (aex_name, aex) in
                [("triad", AexSpec::TriadLike), ("isolated", AexSpec::IsolatedCore)]
            {
                for &(attack_name, attack) in &attacks {
                    let mut spec = ScenarioSpec::new(n)
                        .horizon(horizon)
                        .all_nodes_aex(aex.clone())
                        .manipulation(PlannedManipulation {
                            at: SimTime::from_secs(HORIZON_S / 2),
                            victim: Addr(1),
                            manipulation: TscManipulation::ScaleRate(MANIP_RATE),
                        });
                    if hardened {
                        spec = spec.node_impl(NodeImplSpec::Resilient(Box::default()));
                    }
                    if let Some(mode) = attack {
                        let victim = Addr(u16::try_from(n).expect("small cluster"));
                        spec = spec.attack(AttackSpec::calibration_delay_paper(victim, mode));
                    }
                    let node = if hardened { "hardened" } else { "triad" };
                    cells.push(Cell {
                        label: format!("n{n}-{node}-{aex_name}-{attack_name}"),
                        seed: derive_seed(seed, cells.len() as u64),
                        spec,
                    });
                }
            }
        }
    }
    cells
}

fn eval(i: usize, cell: &Cell, mut spans: Spans) -> CellOut {
    let op = i as u64;
    let root = Some(spans.enter("protocol.cell", None, op));
    let mut sim = spans.time("scenario.build", root, op, || cell.spec.build(cell.seed));
    spans.time("sim.run_until", root, op, || sim.run_until(cell.spec.horizon));
    // The paper's damage measure: largest drift no detection covered.
    let fitness = spans.time("search.score", root, op, || score(sim.world(), FitnessTarget::Drift));
    let counts = Counts::from_sim(&sim);
    if let Some(r) = root {
        spans.exit(r);
    }
    let rec = &sim.world().recorder;
    let hz: Vec<String> = (0..cell.spec.n)
        .map(|k| format!("{:016x}", rec.node(k).latest_calibrated_hz().unwrap_or(0.0).to_bits()))
        .collect();
    CellOut {
        fingerprint: format!(
            "{i} {} dispatched={} detections={} undetected={:016x} hz={}",
            cell.label,
            sim.dispatched(),
            fitness.detections,
            fitness.value.to_bits(),
            hz.join(",")
        ),
        check: Ok(()),
        horizon_s: cell.spec.horizon.as_secs_f64(),
        counts,
        spans,
    }
}

/// Everything before the first simulated event: laying out the grid and
/// building the first cell.
fn set_up(seed: u64) -> Vec<Cell> {
    let cells = grid(seed);
    std::hint::black_box(cells[0].spec.build(cells[0].seed));
    cells
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when fingerprints cannot be read or written.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let cells = set_up(args.seed);
    let spec = BatchSpec {
        cells: cells.len(),
        setup_s: vec![t.elapsed().as_secs_f64()],
        genome_us: Vec::new(),
        header: vec![format!(
            "{} cells of {HORIZON_S} simulated s, one per core: n in {{3,5}} x triad/hardened x \
             triad-like/isolated AEX x none/F+/F-, TSC rate x{MANIP_RATE} on node 1 at mid-horizon",
            cells.len()
        )],
        absent: &["net", "service"],
    };
    batch::run(
        args,
        spec,
        || {
            set_up(args.seed);
            Ok(())
        },
        |i, spans| eval(i, &cells[i], spans),
    )
}
