//! `search-eval`: E23's inner loop.
//!
//! A seeded, fixed population of adversary genomes for each cluster
//! shape, bred by `search::search`'s own rule from an elite pool of the
//! committed corpus winners, plus the four corpus reproducers themselves,
//! each evaluated the way the search evaluates a candidate:
//! `GenomeSpace::spec` → `ScenarioSpec::build` →
//! `Simulation::run_until` → `search::score`, with cells spread over
//! `scenario::Runner` at one job per core. Every cell carries the full
//! serving and quorum layer, so this is the workload where service,
//! crypto, wire, netsim and Runner parallelism do most of the work.

use std::path::PathBuf;
use std::time::Instant;

use attacks::PlannedManipulation;
use experiments::search::replay_close;
use faults::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::derive_seed;
use search::{
    crossover, mutate, random_genome, score, AdversaryGenome, Fitness, FitnessTarget, GenomeSpace,
    Reproducer,
};
use sim::SimTime;

use crate::batch::{self, BatchSpec, CellOut};
use crate::counts::Counts;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::Args;

/// Simulated seconds per bred genome: E23's `--quick` horizon.
const HORIZON_S: u64 = 60;
/// Cluster shapes searched, as in E23.
const SHAPES: [usize; 2] = [3, 5];
/// Genomes bred per shape.
const PER_SHAPE: usize = 28;
/// How many of them are first-generation random genomes. E23 `--quick`
/// runs searches of budget 48 and 96 at population 16 for each (shape,
/// target), so 32 of its 144 evaluations are a first generation, bred
/// before any elite exists: 2/9 of 28, rounded.
const FIRST_GENERATION: usize = 6;
/// `search::search`'s grid for fault and manipulation times.
const GRID_NS: u64 = 100_000_000;

/// One evaluation: a genome in a space, scored under a target at a seed.
struct Cell {
    label: String,
    space: GenomeSpace,
    genome: AdversaryGenome,
    target: FitnessTarget,
    seed: u64,
    /// The fitness a corpus reproducer recorded when it was minted.
    recorded: Option<Fitness>,
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results/search/corpus")
}

/// `genome` with every fault and manipulation time moved from a
/// `from_s`-second horizon into a `to_s`-second one, on the search's
/// 100 ms grid.
fn rescaled(genome: &AdversaryGenome, from_s: u64, to_s: u64) -> AdversaryGenome {
    let at = |t: SimTime| SimTime::from_nanos(t.as_nanos() * to_s / from_s / GRID_NS * GRID_NS);
    AdversaryGenome {
        faults: genome
            .faults
            .events()
            .iter()
            .fold(FaultPlan::new(), |plan, e| plan.at(at(e.at), e.action.clone())),
        manipulations: genome
            .manipulations
            .iter()
            .map(|m| PlannedManipulation { at: at(m.at), ..*m })
            .collect(),
        attack: genome.attack.clone(),
    }
}

/// Breeds `PER_SHAPE` genomes in `space` by `search::search`'s rule: a
/// first generation of random genomes, then 1/8 random, 1/4 of the rest
/// crossovers of two elites and the rest mutants of one, each candidate
/// drawing from its own `derive_seed(master, index)` stream. Also
/// returns the time each genome took to breed (µs).
fn breed(
    space: &GenomeSpace,
    elites: &[AdversaryGenome],
    master: u64,
) -> (Vec<(&'static str, AdversaryGenome)>, Vec<f64>) {
    let mut bred = Vec::with_capacity(PER_SHAPE);
    let mut genome_us = Vec::with_capacity(PER_SHAPE);
    for i in 0..PER_SHAPE {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(derive_seed(master, i as u64));
        let child = if i < FIRST_GENERATION || rng.gen_bool(0.125) {
            ("root", random_genome(space, &mut rng))
        } else if elites.len() >= 2 && rng.gen_bool(0.25) {
            let a = rng.gen_range(0..elites.len());
            let b = (a + rng.gen_range(1..elites.len())) % elites.len();
            ("cross", crossover(&elites[a], &elites[b], space, &mut rng))
        } else {
            ("mutant", mutate(&elites[rng.gen_range(0..elites.len())], space, &mut rng))
        };
        genome_us.push(t.elapsed().as_secs_f64() * 1e6);
        bred.push(child);
    }
    (bred, genome_us)
}

/// The corpus reproducers followed by the seed's bred population; also
/// returns the time each genome took to breed (µs).
///
/// Each shape's elite pool is that shape's corpus winners (one per
/// fitness target), rescaled into the bred horizon: the fittest genomes
/// E23 has found, where the search's own elites would be the fittest of
/// its run so far.
fn population(seed: u64) -> Result<(Vec<Cell>, Vec<f64>), String> {
    let dir = corpus_dir();
    let corpus = Reproducer::load_dir(&dir)
        .map_err(|e| format!("loading the corpus from {}: {e}", dir.display()))?;
    // The reproducers are the costliest cells (90 s horizons, evolved
    // genomes); planned first, they never leave one worker finishing a
    // pass alone.
    let mut cells: Vec<Cell> = corpus
        .iter()
        .map(|rep| Cell {
            label: format!("corpus-{}", rep.name),
            space: rep.space,
            genome: rep.genome.clone(),
            target: rep.target,
            seed: rep.eval_seed,
            recorded: Some(rep.fitness),
        })
        .collect();
    let mut genome_us = Vec::new();
    for (s, &n) in SHAPES.iter().enumerate() {
        let space = GenomeSpace { n, horizon_s: HORIZON_S, service: true };
        let elites: Vec<AdversaryGenome> = corpus
            .iter()
            .filter(|r| r.space.n == n)
            .map(|r| rescaled(&r.genome, r.space.horizon_s, HORIZON_S))
            .collect();
        if elites.is_empty() {
            return Err(format!("no n={n} reproducer under {}", dir.display()));
        }
        for g in &elites {
            g.validate(&space).map_err(|e| format!("rescaled n={n} corpus genome: {e}"))?;
        }
        let (bred, us) = breed(&space, &elites, derive_seed(seed, s as u64));
        genome_us.extend(us);
        for (i, (kind, genome)) in bred.into_iter().enumerate() {
            let target = if i % 2 == 0 { FitnessTarget::Drift } else { FitnessTarget::Slo };
            let seed = derive_seed(seed, 1_000 + cells.len() as u64);
            let label = format!("n{n}-{kind}{i}");
            cells.push(Cell { label, space, genome, target, seed, recorded: None });
        }
    }
    Ok((cells, genome_us))
}

fn eval(i: usize, cell: &Cell, mut spans: Spans) -> CellOut {
    let op = i as u64;
    let root = Some(spans.enter("search.cell", None, op));
    let spec = spans.time("search.spec", root, op, || cell.space.spec(&cell.genome));
    let mut sim = spans.time("scenario.build", root, op, || spec.build(cell.seed));
    spans.time("sim.run_until", root, op, || sim.run_until(cell.space.horizon()));
    let fitness = spans.time("search.score", root, op, || score(sim.world(), cell.target));
    let counts = Counts::from_sim(&sim);
    if let Some(r) = root {
        spans.exit(r);
    }
    let check = match &cell.recorded {
        Some(rec) if !replay_close(&fitness, rec) => Err(format!(
            "{}: replayed {} but the corpus recorded {}",
            cell.label,
            fitness.encode(),
            rec.encode()
        )),
        _ => Ok(()),
    };
    CellOut {
        fingerprint: format!(
            "{i} {} dispatched={} detections={} value={:016x}",
            cell.label,
            sim.dispatched(),
            fitness.detections,
            fitness.value.to_bits()
        ),
        check,
        horizon_s: cell.space.horizon_s as f64,
        counts,
        spans,
    }
}

/// Everything before the first simulated event: breeding the population,
/// loading the corpus, building the first cell.
fn set_up(seed: u64) -> Result<(Vec<Cell>, Vec<f64>), String> {
    let (cells, genome_us) = population(seed)?;
    std::hint::black_box(cells[0].space.spec(&cells[0].genome).build(cells[0].seed));
    Ok((cells, genome_us))
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when the corpus or fingerprints cannot be read.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let (cells, genome_us) = set_up(args.seed)?;
    let corpus = cells.iter().filter(|c| c.recorded.is_some()).count();
    let spec = BatchSpec {
        cells: cells.len(),
        setup_s: vec![t.elapsed().as_secs_f64()],
        genome_us,
        header: vec![format!(
            "{} genomes bred over n={SHAPES:?} at {HORIZON_S} s horizon from the corpus \
             winners + {corpus} corpus reproducers at their recorded spaces",
            cells.len() - corpus
        )],
        absent: &["net"],
    };
    batch::run(args, spec, || set_up(args.seed).map(drop), |i, spans| eval(i, &cells[i], spans))
}
