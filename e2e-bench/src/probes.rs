//! Count-shaped probes of the crypto, wire and scheduler layers.
//!
//! The workloads run these layers deep inside the simulator or the live
//! driver, where the benchmark cannot time them without instrumenting
//! the program. Instead each probe replays, through the same public
//! functions, a sample shaped by the workload's own measured counts: the
//! message-kind mix comes from its serve/attest/client/protocol traffic
//! counts, and the scheduler probe dispatches as many events as the
//! workload did.

use netsim::Addr;
use runtime::KeyTable;
use sim::{Actor, Ctx, SimDuration, Simulation};
use std::hint::black_box;
use std::time::Instant;
use wire::{AttestOutcome, Message, ServeOutcome, TimeReading};

use crate::counts::Counts;
use crate::report::median;

/// Request/response pairs per traffic class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    /// Serving-layer `ServeRequest`/`ServeResponse` pairs.
    pub serve: u64,
    /// Quorum `AttestRequest`/`AttestResponse` pairs.
    pub attest: u64,
    /// Probing-client timestamp/reading pairs.
    pub client: u64,
    /// Protocol pairs: calibration, peer-time and interval exchanges.
    pub protocol: u64,
}

impl Mix {
    /// The mix a simulated run's counts imply: every datagram the fabric
    /// carried that is not serving, attestation or client traffic is
    /// counted as protocol traffic.
    pub fn from_counts(c: &Counts) -> Mix {
        let (serve, attest, client) = (c.offered, c.attests, c.client_rpcs);
        Mix {
            serve,
            attest,
            client,
            protocol: (c.sent / 2).saturating_sub(serve + attest + client),
        }
    }

    /// `n` messages (rounded to whole pairs) sampled in proportion to the
    /// mix; every class with traffic gets at least one pair.
    pub fn messages(&self, n: usize) -> Vec<Message> {
        let total = (self.serve + self.attest + self.client + self.protocol).max(1) as f64;
        let pairs = (n / 2).max(1) as f64;
        let mut out = Vec::with_capacity(n + 8);
        let mut nonce = 0x1234_5678_u64;
        let ts = 3_600_000_000_000u64;
        let reading = TimeReading { estimate_ns: ts, uncertainty_ns: 25_000, degraded: false };
        for (class, weight) in
            [(0, self.serve), (1, self.attest), (2, self.client), (3, self.protocol)]
        {
            if weight == 0 {
                continue;
            }
            let k = ((weight as f64 / total) * pairs).round().max(1.0) as u64;
            for i in 0..k {
                nonce = nonce.wrapping_add(0x9e37_79b9);
                let t = ts + i * 1_000_003;
                let (req, resp) = match (class, i % 3) {
                    (0, _) => (
                        Message::ServeRequest { nonce, accept_degraded: true },
                        Message::ServeResponse { nonce, outcome: ServeOutcome::Time(t) },
                    ),
                    (1, _) => (
                        Message::AttestRequest { nonce },
                        Message::AttestResponse {
                            nonce,
                            outcome: AttestOutcome::Attestation(reading),
                        },
                    ),
                    (2, _) => (
                        Message::TimeReadingRequest { nonce },
                        Message::TimeReadingResponse { nonce, reading: Some(reading) },
                    ),
                    (_, 0) => (
                        Message::CalibrationRequest { nonce, sleep_ns: 500_000_000 },
                        Message::CalibrationResponse {
                            nonce,
                            ta_time_ns: t,
                            slept_ns: 500_000_000,
                        },
                    ),
                    (_, 1) => (
                        Message::PeerTimeRequest { nonce },
                        Message::PeerTimeResponse { nonce, timestamp_ns: t },
                    ),
                    _ => (
                        Message::IntervalRequest { nonce },
                        Message::IntervalResponse {
                            nonce,
                            timestamp_ns: t,
                            error_bound_ns: 40_000,
                            tainted: false,
                        },
                    ),
                };
                out.push(req);
                out.push(resp);
            }
        }
        out
    }
}

/// Per-operation costs measured by [`codec_probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecCost {
    /// `Message::encode_into`, ns per message.
    pub encode_ns: f64,
    /// `Message::decode`, ns per message.
    pub decode_ns: f64,
    /// `KeyTable::seal_into`, ns per frame.
    pub seal_ns: f64,
    /// `KeyTable::open_into`, ns per frame.
    pub open_ns: f64,
    /// `KeyTable::seal_batch_into`, ns per frame, on the sample's
    /// front-end responses in batches of `batch` frames.
    pub seal_batch_ns: f64,
    /// Frames per `seal_batch_into` call.
    pub batch: usize,
    /// Mean plaintext bytes per message.
    pub plain_bytes: f64,
    /// Messages in the sample.
    pub messages: usize,
}

impl CodecCost {
    /// Host seconds that sealing and opening `frames` frames cost, of
    /// which `batched` are front-end responses sealed in batches and the
    /// rest are sealed one at a time; every frame is opened singly.
    pub fn crypto_s(&self, frames: u64, batched: u64) -> f64 {
        let batched = batched.min(frames);
        let ns = batched as f64 * self.seal_batch_ns
            + (frames - batched) as f64 * self.seal_ns
            + frames as f64 * self.open_ns;
        ns * 1e-9
    }
}

/// Times encode, decode, seal and open over `msgs`, and batch sealing
/// over the front-end responses among them in runs of `batch` frames,
/// `rounds` times each, and reports the median per-operation cost. Every
/// decoded message and opened frame is checked against its original.
///
/// # Errors
///
/// Fails when a message does not round-trip through the codec or the
/// AEAD, which would make the timing meaningless.
pub fn codec_probe(msgs: &[Message], batch: usize, rounds: usize) -> Result<CodecCost, String> {
    let (a, b) = (Addr(1), Addr(2));
    let mut keys = KeyTable::new();
    keys.provision_pair(a, b, [0x5a; 32]);
    let n = msgs.len().max(1) as f64;
    let mut plains: Vec<Vec<u8>> = msgs.iter().map(|_| Vec::with_capacity(64)).collect();
    let mut frames: Vec<Vec<u8>> = msgs.iter().map(|_| Vec::with_capacity(96)).collect();
    let mut opened = Vec::with_capacity(64);
    let (mut enc, mut dec, mut seal, mut open) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let batch = batch.max(1);
    let mut seal_batch = Vec::new();
    // The responses a front-end flush seals together, as concatenated
    // plaintexts with their ranges.
    let mut resp_plain = Vec::new();
    let mut resp_parts = Vec::new();
    for m in msgs {
        if matches!(m, Message::ServeResponse { .. } | Message::AttestResponse { .. }) {
            let start = resp_plain.len();
            m.encode_into(&mut resp_plain);
            resp_parts.push(start..resp_plain.len());
        }
    }
    let (mut wire, mut ranges) = (Vec::new(), Vec::new());
    for _ in 0..rounds.max(1) {
        let t = Instant::now();
        for (m, buf) in msgs.iter().zip(&mut plains) {
            buf.clear();
            black_box(m).encode_into(buf);
        }
        enc.push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (m, buf) in msgs.iter().zip(&plains) {
            let decoded = Message::decode(black_box(buf))
                .map_err(|e| format!("probe message {} failed to decode: {e:?}", m.kind()))?;
            if &decoded != m {
                return Err(format!("probe message {} decoded differently", m.kind()));
            }
        }
        dec.push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (plain, frame) in plains.iter().zip(&mut frames) {
            frame.clear();
            keys.seal_into(a, b, black_box(plain), frame);
        }
        seal.push(t.elapsed().as_nanos() as f64 / n);

        let t = Instant::now();
        for (plain, frame) in plains.iter().zip(&frames) {
            opened.clear();
            keys.open_into(b, a, black_box(frame), &mut opened)
                .map_err(|_| "probe frame failed to authenticate".to_string())?;
            if &opened != plain {
                return Err("probe frame opened to different bytes".to_string());
            }
        }
        open.push(t.elapsed().as_nanos() as f64 / n);

        if resp_parts.is_empty() {
            continue;
        }
        wire.clear();
        ranges.clear();
        let t = Instant::now();
        for parts in resp_parts.chunks(batch) {
            keys.seal_batch_into(a, b, black_box(&resp_plain), parts, &mut wire, &mut ranges);
        }
        seal_batch.push(t.elapsed().as_nanos() as f64 / resp_parts.len() as f64);
        for (part, frame) in resp_parts.iter().zip(&ranges) {
            opened.clear();
            keys.open_into(b, a, &wire[frame.clone()], &mut opened)
                .map_err(|_| "probe batch frame failed to authenticate".to_string())?;
            if opened[..] != resp_plain[part.clone()] {
                return Err("probe batch frame opened to different bytes".to_string());
            }
        }
    }
    Ok(CodecCost {
        encode_ns: median(&enc),
        decode_ns: median(&dec),
        seal_ns: median(&seal),
        open_ns: median(&open),
        seal_batch_ns: median(&seal_batch),
        batch,
        plain_bytes: plains.iter().map(Vec::len).sum::<usize>() as f64 / n,
        messages: msgs.len(),
    })
}

/// A self-rescheduling timer chain: the scheduler probe's only actor.
struct Chain {
    left: u64,
}

impl Actor<(), ()> for Chain {
    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        ctx.schedule_in(SimDuration::from_micros(1), ());
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, (), ()>, _: ()) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_in(SimDuration::from_micros(1 + self.left % 97), ());
        }
    }
}

/// What [`scheduler_probe`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCost {
    /// Host ns per dispatched event.
    pub ns_per_event: f64,
    /// Events dispatched.
    pub events: u64,
    /// Payload-slab high-water mark.
    pub pool_slots: u64,
}

/// Dispatches `events` timer events through a bare `sim::Simulation`
/// spread over `chains` concurrent chains: the scheduler's cost with no
/// protocol work attached.
pub fn scheduler_probe(events: u64, chains: u64) -> SchedCost {
    let chains = chains.max(1);
    let mut sim: Simulation<(), ()> = Simulation::new((), 1);
    for c in 0..chains {
        let share = events / chains + u64::from(c < events % chains);
        sim.add_actor(Box::new(Chain { left: share.saturating_sub(1) }));
    }
    let t = Instant::now();
    sim.run();
    let ns = t.elapsed().as_nanos() as f64;
    SchedCost {
        ns_per_event: ns / sim.dispatched().max(1) as f64,
        events: sim.dispatched(),
        pool_slots: sim.pool_slots() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_samples_every_class_and_round_trips() {
        let mix = Mix { serve: 10, attest: 5, client: 1, protocol: 100 };
        let msgs = mix.messages(200);
        assert!(msgs.iter().any(|m| m.kind() == "serve_req"));
        assert!(msgs.iter().any(|m| m.kind() == "reading_resp"));
        assert!(msgs.iter().any(|m| m.kind() == "interval_resp"));
        let cost = codec_probe(&msgs, 4, 2).expect("probe messages round-trip");
        assert!(cost.encode_ns > 0.0 && cost.seal_ns > 0.0 && cost.seal_batch_ns > 0.0);
    }

    #[test]
    fn scheduler_probe_dispatches_what_it_was_asked() {
        let s = scheduler_probe(1000, 7);
        assert_eq!(s.events, 1000);
    }
}
