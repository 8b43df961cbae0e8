//! `live-serve`: a closed loop of serve round trips over real loopback UDP.
//!
//! One blocking `net::LiveClient::serve` caller drives a precalibrated
//! single-front-end `net::run_cluster`: two threads in all, the client
//! (this one) and the front-end. It is the only workload through
//! `crates/net` and real syscalls. The loop is closed — the next request
//! leaves only after the previous answer arrived — because an open-loop
//! generator would need a third thread on a two-core host.

use std::time::{Duration, Instant};

use net::{run_cluster, LiveSpec};
use service::FrontendSpec;
use sim::SimDuration;

use crate::batch::spans_path;
use crate::counts::Counts;
use crate::ledger::Ledger;
use crate::probes::{codec_probe, scheduler_probe, Mix};
use crate::report::{median, peak_rss_mb, percentile, ratio, Metric, Outcome};
use crate::spans::Spans;
use crate::Args;

/// The front-end's flush window: latency per round trip, not batching
/// throughput, is what a blocking client measures.
const BATCH_WINDOW: SimDuration = SimDuration::from_micros(200);
/// Per-attempt timeout: far above any healthy loopback round trip, so a
/// retry (which would make the front-end serve one request twice) only
/// happens when something is broken.
const PER_ATTEMPT: Duration = Duration::from_secs(1);
const ATTEMPTS: u32 = 3;
/// Sessions per run, each on a freshly stood-up cluster.
const SESSIONS: usize = 4;
/// Extra stand-ups timed before each session (median of all reported).
const BARE_STAND_UPS: usize = 3;
/// Events the simulated twin of one round trip dispatches (request
/// delivery, batch-flush timer, response delivery): the size of the
/// scheduler-only probe.
const EVENTS_PER_ROUND_TRIP: u64 = 3;

struct Sample {
    rtt_ns: f64,
    ok: bool,
    traced: bool,
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when peak RSS cannot be read or spans cannot be written.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = LiveSpec {
        nodes: 1,
        seed: args.seed,
        precalibrated: true,
        external_clients: 1,
        frontend: FrontendSpec { batch_window: BATCH_WINDOW, ..FrontendSpec::default() },
        ..LiveSpec::default()
    };
    // The measured time is split into sessions, each on a freshly stood-up
    // cluster, so set-up is sampled across the whole run rather than in one
    // instant of it. A traced run traces its second half of sessions; the
    // gap between the halves is the tracing overhead.
    let session_len = args.seconds / SESSIONS as u32;
    let epoch = Instant::now();
    let mut spans = Spans::on(epoch);
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut wall_u, mut wall_t) = (Duration::ZERO, Duration::ZERO);
    let mut fe_counts = Counts::default();
    let (mut batches, mut served, mut drops) = (0, 0, 0);
    for session in 0..SESSIONS {
        // Set-up is the cluster stand-up (sockets, keys, threads) up to the
        // moment the first request could leave.
        for _ in 0..BARE_STAND_UPS {
            let t = Instant::now();
            let (_, d) = run_cluster(&spec, |_| t.elapsed());
            setup_s.push(d.as_secs_f64());
        }
        let traced = args.trace && session >= SESSIONS / 2;
        let first_op = samples.len() as u64;
        let stand_up = Instant::now();
        let (report, (session_samples, wall)) = run_cluster(&spec, |handle| {
            setup_s.push(stand_up.elapsed().as_secs_f64());
            let frontend = handle.frontends()[0];
            let client = handle.client(0);
            let mut out = Vec::new();
            let started = Instant::now();
            while started.elapsed() < session_len {
                let op = first_op + out.len() as u64;
                let span = traced.then(|| spans.enter("net.serve", None, op));
                let t = Instant::now();
                let ok = client.serve(frontend, PER_ATTEMPT, ATTEMPTS).is_some();
                let rtt_ns = t.elapsed().as_nanos() as f64;
                if let Some(id) = span {
                    spans.exit(id);
                }
                out.push(Sample { rtt_ns, ok, traced });
            }
            (out, started.elapsed())
        });
        for (i, s) in session_samples.iter().enumerate() {
            outcome
                .check(s.ok, || format!("session {session} round trip {i} returned no timestamp"));
        }
        let fe = &report.frontends[0];
        let answered = session_samples.iter().filter(|s| s.ok).count() as u64;
        let fe_served = fe.node(0).frontend_served.count();
        outcome.check(fe_served == answered, || {
            format!(
                "session {session}: front-end served {fe_served} requests but the client saw \
                 {answered} answers"
            )
        });
        fe_counts.add(&Counts::from_recorder(fe));
        batches += fe.node(0).frontend_batches.count();
        served += fe_served;
        drops += fe.service.drops();
        if traced {
            wall_t += wall;
        } else {
            wall_u += wall;
        }
        samples.extend(session_samples);
    }
    let successes = samples.iter().filter(|s| s.ok).count() as u64;

    let rtts = |traced: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.traced == traced).map(|s| s.rtt_ns).collect()
    };
    let untraced = rtts(false);
    let k = untraced.len();
    let (p50, p90) = (median(&untraced), percentile(&untraced, 90.0));
    let rate = k as f64 / wall_u.as_secs_f64();
    outcome.header.push(format!(
        "closed loop, 1 client + 1 front-end thread (nproc {}), batch window {} us, \
         {} round trips untraced + {} traced",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        BATCH_WINDOW.as_nanos() / 1_000,
        k,
        samples.len() - k
    ));
    outcome.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setup_s),
            format!("median of {} stand-ups", setup_s.len()),
        ),
        Metric::new("ops_per_s", "1/s", rate, format!("round trips per second, {k} round trips")),
        Metric::new("op_p50_ms", "ms", p50 / 1e6, format!("round-trip time, {k} samples")),
        Metric::new("op_p90_ms", "ms", p90 / 1e6, format!("round-trip time, {k} samples")),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()?, "VmHWM"),
    ];
    outcome.detail = vec![
        Metric::new("setup_first_s", "s", setup_s[0], "the run's first, cold stand-up"),
        Metric::new(
            "round_trips_per_s",
            "1/s",
            rate,
            format!("{k} in {:.3} s", wall_u.as_secs_f64()),
        ),
        Metric::new("rtt_p50_us", "us", p50 / 1e3, format!("{k} samples")),
        Metric::new("rtt_p90_us", "us", p90 / 1e3, format!("{k} samples")),
    ];

    if args.trace {
        let traced = rtts(true);
        let rts = traced.len() as u64;
        let batch = ratio(served as f64, batches as f64).round() as usize;
        let codec =
            codec_probe(&Mix { serve: rts.max(1), ..Mix::default() }.messages(4096), batch, 9)?;
        let sched = scheduler_probe(rts.max(1) * EVENTS_PER_ROUND_TRIP, 4);
        let p50_t = median(&traced);
        // Per round trip: the client seals and the front-end opens the
        // request, the front-end seals and the client opens the answer,
        // and each message is encoded once and decoded once.
        let cpu_ns = 2.0 * (codec.seal_ns + codec.open_ns + codec.encode_ns + codec.decode_ns);
        // Counts cover every session, like the front-ends' own.
        let issued = samples.len() as u64;
        let frames = 2 * issued;
        let mut counts = fe_counts;
        counts.offered = issued;
        counts.served_ok = successes;
        counts.goodput = successes;
        counts.timeouts = issued - successes;
        let wall = wall_u + wall_t;
        // The front-end seals its answers through `send_batch`.
        let crypto_s = codec.crypto_s(frames, served);
        let ledger = Ledger {
            counts,
            sim_ns_per_event: sched.ns_per_event,
            sched_probe: Some(sched),
            crypto_share: (
                ratio(crypto_s, wall.as_secs_f64()),
                format!(
                    "{frames} frames ({served} batch-sealed) x (seal+open) / {:.3} s wall",
                    wall.as_secs_f64()
                ),
            ),
            codec,
            net_frontend_batches: batches,
            net_frontend_served: served,
            net_drops: drops,
            net_rtt_p99_us: (percentile(&traced, 99.0) / 1e3, traced.len()),
            net_wait_share: 1.0 - ratio(cpu_ns, p50_t),
            trace_overhead_frac: (
                ratio(p50_t, p50) - 1.0,
                format!("RTT p50, {} traced vs {k} untraced round trips", traced.len()),
            ),
            absent: &["scenario", "search", "netsim", "core"],
            ..Ledger::default()
        };
        outcome.per_layer = ledger.metrics();
        let path = spans_path(args.workload.name(), args.seed);
        spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.header.push(format!("{} spans written to {}", spans.len(), path.display()));
    }
    Ok(outcome)
}
