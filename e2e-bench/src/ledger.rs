//! The per-layer ledger: one fixed list of metrics, the same names on
//! every workload, each named after the module it measures.
//!
//! A workload fills in what its path exercises. A layer that is not on a
//! workload's path reads 0 and its note says so; the simulated workloads
//! never touch `net`, and live-serve never touches `scenario`, `search`,
//! `netsim` or the protocol nodes (its cluster is precalibrated). The
//! live workload's `sim` numbers come from the scheduler-only probe.

use crate::counts::Counts;
use crate::probes::{CodecCost, SchedCost};
use crate::report::{ratio, Metric};

/// Everything the per-layer JSON payload reports.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per-pass work counts (deterministic for a seed on the simulated
    /// workloads).
    pub counts: Counts,
    /// Host ns per dispatched event inside `Simulation::run_until`, or
    /// the scheduler probe's figure when `sched_probe` is set.
    pub sim_ns_per_event: f64,
    /// Set when the `sim` figures come from [`crate::probes::scheduler_probe`].
    pub sched_probe: Option<SchedCost>,
    /// Median `ScenarioSpec::build`, ms (with its sample count).
    pub build_ms: (f64, usize),
    /// `(jobs × wall − Σ cell busy) ÷ (jobs × wall)` over traced passes.
    pub runner_idle_frac: f64,
    /// Median `search::score`, ms (with its sample count).
    pub score_ms: (f64, usize),
    /// Median genome breeding time, µs (with its sample count).
    pub genome_us: (f64, usize),
    /// Probe-timed codec and AEAD costs on the workload's message mix.
    pub codec: CodecCost,
    /// Host time the workload's own frames would spend in seal+open, as a
    /// share of its busy time.
    pub crypto_share: (f64, String),
    /// Live front-end batch flushes.
    pub net_frontend_batches: u64,
    /// Live front-end served requests.
    pub net_frontend_served: u64,
    /// Live datagrams dropped before reaching a machine.
    pub net_drops: u64,
    /// Live round-trip p99, µs (with its sample count).
    pub net_rtt_p99_us: (f64, usize),
    /// `1 − (seal/open + codec per round trip) ÷ RTT p50`.
    pub net_wait_share: f64,
    /// Traced ÷ untraced cost of the same work, minus one.
    pub trace_overhead_frac: (f64, String),
    /// Layers not on this workload's path (their metrics read 0).
    pub absent: &'static [&'static str],
}

impl Ledger {
    /// The ledger as metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let absent = |name: &str| {
            let layer = name.split('.').next().unwrap_or(name);
            if self.absent.contains(&layer) {
                "not on this workload's path".to_string()
            } else {
                String::new()
            }
        };
        let (events, slots, sim_note) = match self.sched_probe {
            Some(p) => {
                (p.events, p.pool_slots, "scheduler-only probe sized from the workload's events")
            }
            None => (c.events, c.pool_slots, "run_until time / dispatched()"),
        };
        let codec_note = format!(
            "probe: {} msgs of the workload's mix, {:.1} B mean plaintext",
            self.codec.messages, self.codec.plain_bytes
        );
        let n = |(v, k): (f64, usize), what: &str| (v, format!("median of {k} {what}"));
        let mut out = vec![
            Metric::count("sim.events", events),
            Metric::new("sim.ns_per_event", "ns", self.sim_ns_per_event, sim_note),
            Metric::count("sim.pool_slots", slots),
        ];
        let (v, note) = n(self.build_ms, "builds");
        out.push(Metric::new("scenario.build_ms", "ms", v, note));
        out.push(Metric::new("scenario.runner_idle_frac", "frac", self.runner_idle_frac, ""));
        let (v, note) = n(self.score_ms, "scores");
        out.push(Metric::new("search.score_ms", "ms", v, note));
        let (v, note) = n(self.genome_us, "genomes bred");
        out.push(Metric::new("search.genome_us", "us", v, note));
        for (name, v) in [
            ("netsim.sent", c.sent),
            ("netsim.delivered", c.delivered),
            ("netsim.lost", c.lost),
            ("netsim.duplicated", c.duplicated),
            ("netsim.reordered", c.reordered),
            ("netsim.attacker_delayed", c.attacker_delayed),
        ] {
            out.push(Metric::count(name, v));
        }
        out.push(Metric::new("crypto.seal_ns", "ns", self.codec.seal_ns, codec_note.clone()));
        out.push(Metric::new("crypto.open_ns", "ns", self.codec.open_ns, codec_note.clone()));
        out.push(Metric::new(
            "crypto.seal_batch_ns",
            "ns",
            self.codec.seal_batch_ns,
            if self.codec.seal_batch_ns > 0.0 {
                format!("per frame, {} front-end responses per seal_batch_into", self.codec.batch)
            } else {
                "no front-end responses in this workload's mix".to_string()
            },
        ));
        out.push(Metric::new(
            "crypto.share",
            "frac",
            self.crypto_share.0,
            self.crypto_share.1.clone(),
        ));
        out.push(Metric::new("wire.encode_ns", "ns", self.codec.encode_ns, codec_note.clone()));
        out.push(Metric::new("wire.decode_ns", "ns", self.codec.decode_ns, codec_note));
        for (name, v) in [
            ("service.offered", c.offered),
            ("service.served_ok", c.served_ok),
            ("service.shed", c.shed),
            ("service.timeouts", c.timeouts),
            ("service.failovers", c.failovers),
            ("service.quorum_offered", c.quorum_offered),
            ("service.quorum_accepted", c.quorum_accepted),
            ("service.batches", c.batches),
        ] {
            out.push(Metric::count(name, v));
        }
        out.push(Metric::new(
            "service.goodput_ratio",
            "frac",
            ratio(c.goodput as f64, c.offered as f64),
            format!("answered (ok or degraded) / offered = {} / {}", c.goodput, c.offered),
        ));
        out.push(Metric::new(
            "service.quorum_accept_ratio",
            "frac",
            ratio(c.quorum_accepted as f64, c.quorum_offered as f64),
            format!(
                "quorum_accepted / quorum_offered = {} / {}",
                c.quorum_accepted, c.quorum_offered
            ),
        ));
        for (name, v) in [
            ("core.ta_references", c.ta_references),
            ("core.aex_events", c.aex_events),
            ("core.calibrations", c.calibrations),
            ("core.peer_adoptions", c.peer_adoptions),
            ("core.detections", c.detections),
            ("trace.counter_entries", c.counter_entries),
            ("trace.series_points", c.series_points),
            ("net.frontend_batches", self.net_frontend_batches),
            ("net.frontend_served", self.net_frontend_served),
            ("net.drops", self.net_drops),
        ] {
            out.push(Metric::count(name, v));
        }
        let (v, k) = self.net_rtt_p99_us;
        out.push(Metric::new("net.rtt_p99_us", "us", v, format!("{k} round trips")));
        out.push(Metric::new("net.wait_share", "frac", self.net_wait_share, ""));
        out.push(Metric::new(
            "bench.trace_overhead_frac",
            "frac",
            self.trace_overhead_frac.0,
            self.trace_overhead_frac.1.clone(),
        ));
        for m in &mut out {
            let why = absent(m.name);
            if !why.is_empty() {
                m.note = why;
            }
        }
        out
    }
}
