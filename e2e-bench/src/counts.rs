//! Deterministic per-layer work counts read off a finished run.
//!
//! Every field comes from a public accessor (`Simulation::dispatched`,
//! `Network::total_stats`, the trace `Recorder`'s counters), so the
//! benchmark reads what the program already records and adds no
//! instrumentation to it.

use runtime::{SysEvent, World};
use sim::Simulation;
use trace::{NodeTrace, Recorder, ServiceTrace, StepCounter};

/// Work counts of one or more runs (summed; `pool_slots` is a maximum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub pool_slots: u64,
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub attacker_delayed: u64,
    pub offered: u64,
    pub served_ok: u64,
    pub goodput: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub quorum_offered: u64,
    pub quorum_accepted: u64,
    pub batches: u64,
    pub attests: u64,
    pub client_rpcs: u64,
    pub ta_references: u64,
    pub aex_events: u64,
    pub calibrations: u64,
    pub peer_adoptions: u64,
    pub detections: u64,
    pub counter_entries: u64,
    pub series_points: u64,
}

fn node_counters(n: &NodeTrace) -> [&StepCounter; 20] {
    [
        &n.ta_references,
        &n.aex_events,
        &n.peer_untaints,
        &n.peer_adoptions,
        &n.chimer_rejections,
        &n.corrections,
        &n.deadline_checks,
        &n.gossip_alerts,
        &n.client_served,
        &n.client_denied,
        &n.crashes,
        &n.probe_retries,
        &n.breaker_opens,
        &n.frontend_batches,
        &n.frontend_served,
        &n.frontend_shed,
        &n.frontend_attests,
        &n.byzantine_suspected,
        &n.quarantined,
        &n.monitor_detections,
    ]
}

fn service_counters(s: &ServiceTrace) -> [&StepCounter; 18] {
    [
        &s.offered,
        &s.served_ok,
        &s.served_degraded,
        &s.shed,
        &s.unavailable,
        &s.timeouts,
        &s.failovers,
        &s.all_down,
        &s.quorum_offered,
        &s.quorum_accepted,
        &s.quorum_no_quorum,
        &s.quorum_unavailable,
        &s.byzantine_suspects,
        &s.quarantines,
        &s.rejoins,
        &s.drops_frame,
        &s.drops_auth,
        &s.drops_decode,
    ]
}

impl Counts {
    /// The trace-derived counts of one recorder (service, core, trace).
    pub fn from_recorder(rec: &Recorder) -> Counts {
        let s = &rec.service;
        let mut c = Counts {
            offered: s.offered.count(),
            served_ok: s.served_ok.count(),
            goodput: s.goodput(),
            shed: s.shed.count(),
            timeouts: s.timeouts.count(),
            failovers: s.failovers.count(),
            quorum_offered: s.quorum_offered.count(),
            quorum_accepted: s.quorum_accepted.count(),
            counter_entries: service_counters(s).iter().map(|c| c.count()).sum(),
            ..Counts::default()
        };
        for n in rec.iter() {
            c.batches += n.frontend_batches.count();
            c.attests += n.frontend_attests.count();
            c.client_rpcs += n.client_served.count() + n.client_denied.count();
            c.ta_references += n.ta_references.count();
            c.aex_events += n.aex_events.count();
            c.calibrations += n.calibrations_hz.len() as u64;
            c.peer_adoptions += n.peer_adoptions.count();
            c.detections += n.detection_count();
            c.counter_entries += node_counters(n).iter().map(|c| c.count()).sum::<u64>();
            c.series_points += (n.drift_ms.len()
                + n.reading_uncertainty_ns.len()
                + n.calibrations_hz.len()
                + n.states.transitions().len()) as u64;
        }
        c
    }

    /// Every count of a finished simulated run.
    pub fn from_sim(sim: &Simulation<World, SysEvent>) -> Counts {
        let world = sim.world();
        let net = world.net.total_stats();
        Counts {
            events: sim.dispatched(),
            pool_slots: sim.pool_slots() as u64,
            sent: net.sent,
            delivered: net.delivered,
            lost: net.lost,
            duplicated: net.duplicated,
            reordered: net.reordered,
            attacker_delayed: net.attacker_delayed,
            ..Counts::from_recorder(&world.recorder)
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.pool_slots = self.pool_slots.max(o.pool_slots);
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.duplicated += o.duplicated;
        self.reordered += o.reordered;
        self.attacker_delayed += o.attacker_delayed;
        self.offered += o.offered;
        self.served_ok += o.served_ok;
        self.goodput += o.goodput;
        self.shed += o.shed;
        self.timeouts += o.timeouts;
        self.failovers += o.failovers;
        self.quorum_offered += o.quorum_offered;
        self.quorum_accepted += o.quorum_accepted;
        self.batches += o.batches;
        self.attests += o.attests;
        self.client_rpcs += o.client_rpcs;
        self.ta_references += o.ta_references;
        self.aex_events += o.aex_events;
        self.calibrations += o.calibrations;
        self.peer_adoptions += o.peer_adoptions;
        self.detections += o.detections;
        self.counter_entries += o.counter_entries;
        self.series_points += o.series_points;
    }
}
