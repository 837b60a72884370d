//! Closed-loop traffic: each honest connection walks its schedule, every
//! request waiting for the previous verdict; in `flood` an attacker
//! connection runs beside them until the honest schedule ends. Every
//! verdict is checked against the planted truth.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_core::protocol::{ChallengeMsg, DigestMsg, HelloMsg, Verdict, VerdictMsg};
use rbc_core::service::AuthService;
use rbc_hash::DynDigest;
use rbc_net::{lossy_duplex, LossyEndpoint, NetTelemetry, RpcClient, RpcServer};
use rbc_pqc::LightSaber;
use rbc_telemetry::{Counter, Recorder, SpanRecord};

use crate::stack::{planted_respond, Plan, Stack, Workload};
use crate::stats::{process_cpu_ms, windows, WINDOW};

type Service = AuthService<LightSaber>;

/// How long an idle RPC server waits for the next request before it
/// gives up on its client.
const SERVER_IDLE: Duration = Duration::from_secs(120);

/// One span recorded by the benchmark around a public call.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Trace id of the request (0 for ladder steps).
    pub trace_id: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span's id (0 at the root).
    pub parent: u64,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Receipt hashes billed while the span was open.
    pub hashes: u64,
}

impl Span {
    /// Span length in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The benchmark's span clock and id source.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
}

impl Spans {
    /// A span source whose epoch is now.
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), next_id: AtomicU64::new(1) }
    }

    /// A finished span from `start` to `end`.
    pub fn span(
        &self,
        name: &'static str,
        trace_id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        Span {
            name,
            trace_id,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            hashes: 0,
        }
    }
}

/// Keeps the program's own service spans, for the traced requests only.
#[derive(Default)]
pub struct KeepTraced {
    ids: Mutex<HashSet<u64>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl KeepTraced {
    fn watch(&self, trace_id: u64) {
        self.ids.lock().expect("trace id set poisoned").insert(trace_id);
    }

    /// Drains the kept spans.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

impl Recorder for KeepTraced {
    fn record(&self, span: &SpanRecord) {
        if self.ids.lock().expect("trace id set poisoned").contains(&span.trace_id) {
            self.spans.lock().expect("span buffer poisoned").push(*span);
        }
    }
}

/// A client's path to the service.
trait Conn {
    /// Names of the spans around the two calls.
    fn span_names(&self) -> (&'static str, &'static str);
    fn begin(&mut self, hello: &HelloMsg) -> Result<ChallengeMsg, String>;
    fn complete(&mut self, msg: &DigestMsg) -> Result<VerdictMsg, String>;
}

/// In-process calls into `AuthService`.
struct Local<'a>(&'a Service);

impl Conn for Local<'_> {
    fn span_names(&self) -> (&'static str, &'static str) {
        ("begin", "complete")
    }

    fn begin(&mut self, hello: &HelloMsg) -> Result<ChallengeMsg, String> {
        self.0.begin(hello).map_err(|e| e.to_string())
    }

    fn complete(&mut self, msg: &DigestMsg) -> Result<VerdictMsg, String> {
        self.0.complete(msg).map_err(|e| e.to_string())
    }
}

/// An `RpcClient` on a loss-free, zero-latency link.
struct Wire(RpcClient);

impl Wire {
    fn call<Req: serde::Serialize, Resp: serde::de::DeserializeOwned>(
        &mut self,
        trace_id: u64,
        req: &Req,
    ) -> Result<Resp, String> {
        self.0.set_trace(trace_id);
        let value: serde_json::Value = self.0.call(req).map_err(|e| e.to_string())?;
        if let Ok(err) = value.field("error") {
            return Err(err.as_str().unwrap_or("server error").to_string());
        }
        serde_json::from_value(value).map_err(|e| e.to_string())
    }
}

impl Conn for Wire {
    fn span_names(&self) -> (&'static str, &'static str) {
        ("rpc.call.hello", "rpc.call.digest")
    }

    fn begin(&mut self, hello: &HelloMsg) -> Result<ChallengeMsg, String> {
        self.call(hello.trace.trace_id, hello)
    }

    fn complete(&mut self, msg: &DigestMsg) -> Result<VerdictMsg, String> {
        self.call(msg.trace.trace_id, msg)
    }
}

/// Serves one RPC connection until its client hangs up; in a traced run
/// returns a span per served call.
fn serve(service: &Service, link: LossyEndpoint, spans: Option<&Spans>) -> Vec<Span> {
    let mut rpc = RpcServer::new(link);
    let mut out = Vec::new();
    while let Ok((seq, req)) = rpc.recv_request::<serde_json::Value>(SERVER_IDLE) {
        let start = Instant::now();
        let trace_id = req
            .field("trace")
            .and_then(|t| t.field("trace_id"))
            .ok()
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        let (name, value) = if req.field("digest").is_ok() {
            ("server.complete", reply(serde_json::from_value(req), |m| service.complete(m)))
        } else {
            ("server.begin", reply(serde_json::from_value(req), |m| service.begin(m)))
        };
        if let Some(spans) = spans {
            out.push(spans.span(name, trace_id, 0, start, Instant::now()));
        }
        if rpc.respond(seq, &value).is_err() {
            break;
        }
    }
    out
}

/// The response to a decoded request: the service's answer, or an
/// `{"error": …}` object the client turns back into an error.
fn reply<M, R: serde::Serialize, E: ToString>(
    msg: Result<M, serde_json::Error>,
    call: impl FnOnce(&M) -> Result<R, E>,
) -> serde_json::Value {
    msg.map_err(|e| e.to_string())
        .and_then(|m| call(&m).map_err(|e| e.to_string()))
        .and_then(|r| serde_json::to_value(&r).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| error_value(&e))
}

fn error_value(message: &str) -> serde_json::Value {
    serde_json::Value::Object(vec![(
        "error".to_string(),
        serde_json::Value::Str(message.to_string()),
    )])
}

/// Marks the start and end of the measured window across the honest
/// connections: wall time and process CPU time.
struct Window {
    barrier: Barrier,
    marks: Mutex<Vec<(Instant, f64)>>,
}

impl Window {
    fn new(connections: usize) -> Self {
        Window { barrier: Barrier::new(connections), marks: Mutex::new(Vec::new()) }
    }

    fn mark(&self) {
        if self.barrier.wait().is_leader() {
            self.marks
                .lock()
                .expect("window marks poisoned")
                .push((Instant::now(), process_cpu_ms()));
        }
    }
}

/// What the attacker connection did.
#[derive(Clone, Debug, Default)]
pub struct AttackTally {
    /// `complete` calls.
    pub requests: u64,
    /// Rejected verdicts.
    pub rejected: u64,
    /// Overloaded verdicts (admission refusals).
    pub refused: u64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of each scored request, ms; `+∞` for a failed one.
    pub latencies_ms: Vec<f64>,
    /// The same latencies cut into windows of consecutive requests of
    /// one connection, each at least [`WINDOW`] long.
    pub latency_windows: Vec<Vec<f64>>,
    /// Time the client spent in its own PUF readout, µs (excluded from
    /// latency).
    pub respond_us: Vec<f64>,
    /// Wall time of the measured window, seconds.
    pub wall_s: f64,
    /// Process CPU time over the measured window, milliseconds.
    pub cpu_ms: f64,
    /// Scored requests that completed correctly.
    pub correct: u64,
    /// Scored requests attempted.
    pub attempted: u64,
    /// Scored requests refused, timed out or failed with a CA error.
    pub failed: u64,
    /// Wrong verdicts, each described.
    pub mismatches: Vec<String>,
    /// `complete` calls made, honest and attacker.
    pub completes: u64,
    /// The attacker connection's tally.
    pub attack: AttackTally,
    /// The benchmark's spans (traced runs).
    pub spans: Vec<Span>,
    /// Untraced over traced latency of each request pair (traced runs).
    pub pair_ratios: Vec<f64>,
    /// Wall time from the first request to the last connection's end
    /// (the attacker's last search included), seconds.
    pub elapsed_s: f64,
}

impl Outcome {
    /// Adds one honest connection's tally.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.completes += other.completes;
        self.correct += other.correct;
        self.failed += other.failed;
        self.latency_windows.extend(windows(&other.latencies_ms, WINDOW));
        self.latencies_ms.extend(other.latencies_ms);
        self.respond_us.extend(other.respond_us);
        self.mismatches.extend(other.mismatches);
        self.spans.extend(other.spans);
        self.pair_ratios.extend(other.pair_ratios);
    }
}

/// Tracing state shared by the connections of a traced run.
pub struct Tracing<'a> {
    /// Span clock.
    pub spans: &'a Spans,
    /// The service's recorder, told which trace ids to keep.
    pub keep: &'a KeepTraced,
}

/// Runs `plan` against `stack` and returns what happened.
pub fn run(
    workload: Workload,
    stack: &Stack,
    plan: &Plan,
    seed: u64,
    tracing: Option<&Tracing>,
) -> Outcome {
    let service: &Service = &stack.service;
    let hashes = stack.registry.counter("rbc_attrib_hashes_total");
    let conns = workload.connections();
    let window = Window::new(conns);
    let done = AtomicBool::new(false);
    let mut outcome = Outcome::default();
    let mut attack = AttackTally::default();
    let mut tallies: Vec<Outcome> = Vec::new();
    let mut server_spans: Vec<Span> = Vec::new();
    let mut attack_mismatches: Vec<String> = Vec::new();
    let start = Instant::now();

    std::thread::scope(|s| {
        let attacker = (!plan.attack.is_empty()).then(|| {
            s.spawn(|| {
                let mut conn = Local(service);
                attack_loop(&mut conn, stack, plan, seed, &done)
            })
        });
        let mut servers = Vec::new();
        let mut workers = Vec::new();
        for c in 0..conns {
            let schedule = &plan.conns[c];
            let window = &window;
            let hashes = &hashes;
            let rng_seed = seed ^ (0xc0_0000 + c as u64);
            if workload.on_wire() {
                let net = NetTelemetry::register(&stack.registry);
                let (mut client_link, mut server_link) =
                    lossy_duplex(Duration::ZERO, 0.0, seed.wrapping_add(c as u64));
                client_link.attach_telemetry(net.clone());
                server_link.attach_telemetry(net);
                let spans = tracing.map(|t| t.spans);
                servers.push(s.spawn(move || serve(service, server_link, spans)));
                workers.push(s.spawn(move || {
                    let mut conn = Wire(RpcClient::new(client_link));
                    honest_loop(&mut conn, stack, schedule, window, hashes, rng_seed, tracing)
                }));
            } else {
                workers.push(s.spawn(move || {
                    let mut conn = Local(service);
                    honest_loop(&mut conn, stack, schedule, window, hashes, rng_seed, tracing)
                }));
            }
        }
        for w in workers {
            tallies.push(w.join().expect("honest connection panicked"));
        }
        done.store(true, Ordering::SeqCst);
        for srv in servers {
            server_spans.extend(srv.join().expect("rpc server panicked"));
        }
        if let Some(a) = attacker {
            let (tally, wrong) = a.join().expect("attacker connection panicked");
            attack = tally;
            attack_mismatches = wrong;
        }
    });

    outcome.elapsed_s = start.elapsed().as_secs_f64();
    let marks = window.marks.into_inner().expect("window marks poisoned");
    if let [(t0, cpu0), (t1, cpu1)] = marks[..] {
        outcome.wall_s = t1.duration_since(t0).as_secs_f64();
        outcome.cpu_ms = cpu1 - cpu0;
    }
    for t in tallies {
        outcome.absorb(t);
    }
    outcome.spans.extend(server_spans);
    outcome.mismatches.extend(attack_mismatches);
    outcome.completes += attack.requests;
    outcome.attack = attack;
    outcome
}

/// One honest connection: its schedule, closed loop.
fn honest_loop(
    conn: &mut dyn Conn,
    stack: &Stack,
    schedule: &[crate::stack::Req],
    window: &Window,
    hashes: &Counter,
    rng_seed: u64,
    tracing: Option<&Tracing>,
) -> Outcome {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut t = Outcome::default();
    let mut pair_first: Option<f64> = None;
    window.mark();
    for req in schedule {
        t.attempted += 1;
        let client = &stack.clients[req.client];
        let hello = client.hello();
        let trace_id = hello.trace.trace_id;
        let traced = tracing.filter(|_| req.traced);
        if let Some(tr) = traced {
            tr.keep.watch(trace_id);
        }
        let t0 = Instant::now();
        let challenge = conn.begin(&hello);
        let t1 = Instant::now();
        let Ok(challenge) = challenge else {
            t.failed += 1;
            t.latencies_ms.push(f64::INFINITY);
            continue;
        };
        let digest = planted_respond(client, &challenge, &req.mask, &mut rng);
        let t2 = Instant::now();
        let hashes_before = hashes.get();
        let verdict = conn.complete(&digest);
        let t3 = Instant::now();
        t.completes += 1;
        t.respond_us.push(t2.duration_since(t1).as_secs_f64() * 1e6);
        let latency_ms = (t1.duration_since(t0) + t3.duration_since(t2)).as_secs_f64() * 1e3;
        if let Some(tr) = traced {
            let (begin_name, complete_name) = conn.span_names();
            let root = tr.spans.span("request", trace_id, 0, t0, t3);
            t.spans.push(tr.spans.span(begin_name, trace_id, root.id, t0, t1));
            t.spans.push(tr.spans.span("client.respond", trace_id, root.id, t1, t2));
            let mut complete = tr.spans.span(complete_name, trace_id, root.id, t2, t3);
            complete.hashes = hashes.get().saturating_sub(hashes_before);
            t.spans.push(complete);
            t.spans.push(root);
        }
        if tracing.is_some() {
            // The two members of a pair are consecutive, in either order.
            match pair_first.take() {
                None => pair_first = Some(latency_ms),
                Some(first) => {
                    let (traced_ms, untraced_ms) =
                        if req.traced { (latency_ms, first) } else { (first, latency_ms) };
                    t.pair_ratios.push(untraced_ms / traced_ms);
                }
            }
        }
        match verdict.map(|v| v.verdict) {
            Ok(Verdict::Accepted { distance, public_key })
                if distance == req.distance && !public_key.is_empty() =>
            {
                t.correct += 1;
                t.latencies_ms.push(latency_ms);
            }
            Ok(Verdict::Overloaded { .. }) | Ok(Verdict::TimedOut) | Err(_) => {
                t.failed += 1;
                t.latencies_ms.push(f64::INFINITY);
            }
            Ok(other) => {
                t.mismatches.push(format!(
                    "client {} planted at d = {}: got {:?}",
                    client.id, req.distance, other
                ));
                t.latencies_ms.push(f64::INFINITY);
            }
        }
    }
    window.mark();
    t
}

/// The `flood` attacker: cycles its schedule until the honest connection
/// is done. Fresh wrong credentials cost a full exhaustion when admitted;
/// replays of an earlier wrong digest under a fresh session test the
/// negative cache. Every `Overloaded` hint is slept off.
fn attack_loop(
    conn: &mut dyn Conn,
    stack: &Stack,
    plan: &Plan,
    seed: u64,
    done: &AtomicBool,
) -> (AttackTally, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00a7_7ac4);
    let mut history: Vec<Vec<DynDigest>> =
        vec![Vec::new(); stack.clients.len() - stack.first_attacker];
    let mut tally = AttackTally::default();
    let mut mismatches = Vec::new();
    for a in plan.attack.iter().cycle() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let client = &stack.clients[stack.first_attacker + a.identity];
        let Ok(challenge) = conn.begin(&client.hello()) else { continue };
        let seen = &mut history[a.identity];
        let msg = match a.replay {
            Some(pick) if !seen.is_empty() => DigestMsg {
                client_id: client.id,
                session: challenge.session,
                digest: seen[pick % seen.len()],
                trace: challenge.trace,
            },
            _ => {
                let msg = planted_respond(client, &challenge, &a.mask, &mut rng);
                seen.push(msg.digest);
                msg
            }
        };
        tally.requests += 1;
        match conn.complete(&msg).map(|v| v.verdict) {
            Ok(Verdict::Rejected) => tally.rejected += 1,
            Ok(Verdict::Overloaded { retry_after_ms }) => {
                tally.refused += 1;
                let until = Instant::now() + Duration::from_millis(retry_after_ms);
                while !done.load(Ordering::SeqCst) && Instant::now() < until {
                    std::thread::sleep(Duration::from_millis(5).min(until - Instant::now()));
                }
            }
            Ok(other) => mismatches.push(format!("attacker {} got {:?}", client.id, other)),
            Err(_) => {}
        }
    }
    (tally, mismatches)
}
