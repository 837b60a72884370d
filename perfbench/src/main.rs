//! End-to-end and per-layer benchmark of the RBC-SALTED server stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deep|shallow|flood --seed N --seconds S --trace 0|1 [--short]
//! ```
//!
//! The run generates its inputs from the seed, stands the stack up (and
//! times that), drives the workload closed-loop, checks every verdict
//! against the planted truth and the service books, and prints one JSON
//! object as the last line of standard output. With `--trace 0` it holds
//! the end-to-end metrics; with `--trace 1` the per-layer metrics of a
//! traced run plus the layer ladder, and the spans go to
//! `perfbench/out/`. Any wrong verdict or unbalanced ledger exits 1.

mod drive;
mod ladder;
mod stack;
mod stats;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rbc_telemetry::{NullRecorder, Recorder, Snapshot, SpanRecord};

use crate::drive::{KeepTraced, Outcome, Span, Spans, Tracing};
use crate::stack::{Plan, Stack, Workload, MAX_D};
use crate::stats::{beyond, median, quantile, ratio, windowed_quantile};

/// Times the stack is set up per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Repetitions of each ladder rung.
const LADDER_REPS: usize = 3;

/// A ladder ratio below this is named in the gap report.
const GAP: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut short) = (0u64, 10u64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--short" => short = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload deep|shallow|flood is required")?;
    Ok(Args { workload, seed, seconds, trace, short })
}

/// A named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    // JSON has no infinity: a p95 over failed requests reads as the
    // largest finite number.
    let value = if value.is_nan() { 0.0 } else { value.clamp(-f64::MAX, f64::MAX) };
    Metric { name: name.into(), unit, value }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let plan = Plan::new(w, args.seed, args.seconds, args.short, args.trace);

    let keep = Arc::new(KeepTraced::default());
    let recorder: Arc<dyn Recorder> =
        if args.trace { keep.clone() } else { Arc::new(NullRecorder) };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stack: Option<Stack> = None;
    for _ in 0..SETUPS {
        drop(stack.take());
        let start = Instant::now();
        stack = Some(stack::set_up(w, args.seed, recorder.clone()));
        setups.push(start.elapsed().as_secs_f64());
    }
    let stack = stack.expect("set up at least once");
    let host = host_fingerprint();
    println!("host {host}");

    let before = stack.registry.snapshot();
    let busy_before = backend_busy_s(&stack);
    let spans = Spans::new();
    let tracing = Tracing { spans: &spans, keep: &keep };
    let outcome = drive::run(w, &stack, &plan, args.seed, args.trace.then_some(&tracing));
    let after = stack.registry.snapshot();
    let busy_s = backend_busy_s(&stack) - busy_before;

    let mut problems = outcome.mismatches.clone();
    let books = stack.service.stats();
    let settled =
        books.accepted + books.rejected + books.timed_out + books.overloaded + books.errors;
    if books.issued != settled {
        problems.push(format!("books: issued {} != settled {settled} ({books:?})", books.issued));
    }
    let sent = outcome.completes + stack.warmup_completes;
    if books.issued != sent {
        problems
            .push(format!("books: service issued {} but the benchmark sent {sent}", books.issued));
    }

    println!(
        "{} seed {}: {} scored requests ({} correct, {} failed) in {:.2} s; {} beyond p95; {} p95 windows; attacker {:?}",
        w.name(),
        args.seed,
        outcome.attempted,
        outcome.correct,
        outcome.failed,
        outcome.wall_s,
        beyond(&outcome.latencies_ms, 0.95),
        outcome.latency_windows.len(),
        outcome.attack,
    );

    let metrics = if args.trace {
        let ladder = ladder::run(
            w.algo(),
            if args.short { 2 } else { MAX_D },
            args.seed,
            LADDER_REPS,
            &spans,
        );
        print_gap_report(&ladder);
        let program_spans = keep.take();
        let metrics =
            layer_metrics(w, &stack, &outcome, &before, &after, busy_s, &ladder, &program_spans);
        write_trace(w, args.seed, &host, &outcome.spans, &ladder.spans, &program_spans, &metrics);
        metrics
    } else {
        end_to_end_metrics(&outcome, &setups)
    };

    for p in &problems {
        println!("MISMATCH {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

/// The host properties a result depends on. Results taken on different
/// SIMD tiers are not comparable; the poll-cost calibration is per process
/// and sets the adaptive batch floor, so it is recorded to trace a noisy run.
fn host_fingerprint() -> String {
    let plan: Vec<String> = rbc_hash::dispatch::kernel_plan()
        .iter()
        .map(|k| format!("{}x{}/{}", k.algo, k.width, k.kernel.name()))
        .collect();
    format!(
        "{{\"nproc\": {}, \"simd\": \"{}\", \"kernel_plan\": \"{}\", \"poll_cost_ns\": {}}}",
        nproc(),
        rbc_hash::dispatch::active_level().name(),
        plan.join(" "),
        rbc_core::batch::measured_poll_cost_ns()
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn simd_tier() -> f64 {
    use rbc_hash::dispatch::SimdLevel;
    match rbc_hash::dispatch::active_level() {
        SimdLevel::Portable => 0.0,
        SimdLevel::Avx2 => 1.0,
        SimdLevel::Avx512 => 2.0,
    }
}

fn backend_busy_s(stack: &Stack) -> f64 {
    stack.service.stats().dispatch.per_backend.iter().map(|b| b.busy.as_secs_f64()).sum()
}

fn end_to_end_metrics(outcome: &Outcome, setups: &[f64]) -> Vec<Metric> {
    let correct = outcome.correct as f64;
    vec![
        metric("auth_s", "auth/s", ratio(correct, outcome.wall_s)),
        metric("auth_p50_ms", "ms", quantile(&outcome.latencies_ms, 0.5)),
        metric("auth_p95_ms", "ms", windowed_quantile(&outcome.latency_windows, 0.95)),
        metric("cpu_ms_per_auth", "ms", ratio(outcome.cpu_ms, correct)),
        metric("setup_s", "s", median(setups)),
        metric("peak_rss_mb", "MB", stats::peak_rss_mb()),
    ]
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn hist_us(snap: &Snapshot, name: &str, p: f64) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.percentile(p) as f64 / 1e3)
}

/// Span time in µs summed per trace id and span name.
fn by_trace(
    spans: impl Iterator<Item = (u64, &'static str, f64)>,
) -> HashMap<u64, HashMap<&'static str, f64>> {
    let mut by: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
    for (trace_id, name, us) in spans {
        *by.entry(trace_id).or_default().entry(name).or_default() += us;
    }
    by
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: Workload,
    stack: &Stack,
    outcome: &Outcome,
    before: &Snapshot,
    after: &Snapshot,
    busy_s: f64,
    ladder: &ladder::Ladder,
    program_spans: &[SpanRecord],
) -> Vec<Metric> {
    let delta = after.diff(before);
    let issued = counter(&delta, "rbc_service_requests_total");
    let hashes = counter(&delta, "rbc_attrib_hashes_total");

    let mut m = Vec::new();
    for rung in &ladder.rungs {
        let unit = if rung.layer == "comb" { "Mmask/s" } else { "MH/s" };
        let name = if rung.layer == "comb" {
            "comb.mmasks_s".to_string()
        } else {
            format!("{}.mhs", rung.layer)
        };
        m.push(metric(name, unit, rung.rate));
    }
    for (name, r, _) in ladder.ratios() {
        m.push(metric(name, "ratio", r));
    }
    m.push(metric("engine.prefix_fp_ratio", "ratio", ladder.prefix_fp_ratio));
    m.push(metric("pool.live_mhs", "MH/s", ratio(hashes, busy_s) / 1e6));
    m.push(metric(
        "pool.wasted_ratio",
        "ratio",
        ratio(counter(&delta, "rbc_resilience_wasted_seeds_total"), hashes),
    ));
    m.push(metric(
        "pool.redispatches",
        "count",
        counter(&delta, "rbc_resilience_redispatches_total"),
    ));

    m.push(metric(
        "dispatch.queue_wait_ms.p50",
        "ms",
        hist_us(&delta, "rbc_dispatch_queue_wait_ns", 50.0) / 1e3,
    ));
    m.push(metric(
        "dispatch.queue_wait_ms.p95",
        "ms",
        hist_us(&delta, "rbc_dispatch_queue_wait_ns", 95.0) / 1e3,
    ));
    m.push(metric("dispatch.overhead_us.p50", "us", ladder.dispatch_overhead_us));
    m.push(metric("dispatch.busy_ratio", "ratio", ratio(busy_s, outcome.elapsed_s)));

    m.push(metric("ca.begin_us.p50", "us", hist_us(&delta, "rbc_service_hello_ns", 50.0)));
    m.push(metric("ca.prepare_us.p50", "us", hist_us(&delta, "rbc_service_prepare_ns", 50.0)));
    m.push(metric("ca.keygen_us.p50", "us", hist_us(&delta, "rbc_ca_keygen_ns", 50.0)));

    let refused = counter(&delta, "rbc_admission_tokens_refused_total")
        + counter(&delta, "rbc_admission_shed_total");
    m.push(metric("admission.refused_ratio", "ratio", ratio(refused, issued)));
    m.push(metric(
        "admission.cache_hit_ratio",
        "ratio",
        ratio(counter(&delta, "rbc_admission_negative_cache_hits_total"), issued),
    ));
    let attack_hashes: u64 = (stack.first_attacker..stack.clients.len())
        .map(|i| stack.attribution.estimated_hashes(stack.clients[i].id))
        .sum();
    m.push(metric(
        "admission.attack_mhashes_per_req",
        "MH",
        ratio(attack_hashes as f64, outcome.attack.requests as f64) / 1e6,
    ));

    // Program spans of the traced requests: the service's own phases.
    let phases = by_trace(
        program_spans.iter().map(|s| (s.trace_id, s.name, s.duration.as_secs_f64() * 1e6)),
    );
    let get = |p: &HashMap<&'static str, f64>, k: &str| p.get(k).copied().unwrap_or(0.0);
    let overhead: Vec<f64> = phases
        .values()
        .filter(|p| p.contains_key("auth_total"))
        .map(|p| {
            let inner = ["prepare", "queue_wait", "search", "finish"]
                .iter()
                .map(|k| get(p, k))
                .sum::<f64>();
            (get(p, "auth_total") - inner).max(0.0)
        })
        .collect();
    let search: f64 = phases.values().map(|p| get(p, "search")).sum();
    let total: f64 = phases.values().map(|p| get(p, "auth_total")).sum();
    m.push(metric("service.overhead_us.p50", "us", median(&overhead)));
    m.push(metric("service.search_share", "ratio", ratio(search, total)));

    let (net_overhead, retransmits) = if w.on_wire() {
        let bench = by_trace(
            outcome.spans.iter().filter(|s| s.trace_id != 0).map(|s| (s.trace_id, s.name, s.us())),
        );
        let over: Vec<f64> = bench
            .values()
            .filter(|b| b.contains_key("rpc.call.digest") && b.contains_key("server.complete"))
            .map(|b| {
                let client = get(b, "rpc.call.hello") + get(b, "rpc.call.digest");
                (client - get(b, "server.begin") - get(b, "server.complete")).max(0.0)
            })
            .collect();
        (
            median(&over),
            ratio(counter(&delta, "rbc_net_retransmits_total"), outcome.attempted as f64),
        )
    } else {
        (0.0, 0.0)
    };
    m.push(metric("net.overhead_us.p50", "us", net_overhead));
    m.push(metric("net.retransmits_per_req", "ratio", retransmits));

    m.push(metric("client.respond_us.p50", "us", median(&outcome.respond_us)));
    // Closed loop: a connection's auth/s is the inverse of its latency, so
    // traced over untraced auth/s is untraced over traced latency. The
    // median over pairs ignores a pair member that waited behind an
    // attacker's sweep.
    m.push(metric("trace.overhead_ratio", "ratio", median(&outcome.pair_ratios)));
    m.push(metric("latency.samples", "count", outcome.latencies_ms.len() as f64));
    m.push(metric("latency.beyond_p95", "count", beyond(&outcome.latencies_ms, 0.95) as f64));
    m.push(metric("host.nproc", "count", nproc() as f64));
    m.push(metric("host.simd_tier", "level", simd_tier()));
    m.push(metric("host.poll_cost_ns", "ns", rbc_core::batch::measured_poll_cost_ns()));
    m
}

/// Prints every ladder ratio with its base rate and names the layers
/// that keep less than `GAP` of the rate beneath them.
fn print_gap_report(ladder: &ladder::Ladder) {
    let mut gaps = Vec::new();
    for rung in &ladder.rungs {
        println!("ladder {:>8}: {:8.3} M/s", rung.layer, rung.rate);
    }
    for (name, r, base) in ladder.ratios() {
        println!("ladder {name} = {r:.3} of {base:.3} M/s");
        if r < GAP {
            gaps.push(name);
        }
    }
    println!(
        "ladder gaps below {GAP}: {}",
        if gaps.is_empty() { "none".to_string() } else { gaps.join(", ") }
    );
}

/// Writes the run's spans and metrics to `perfbench/out/`.
fn write_trace(
    w: Workload,
    seed: u64,
    host: &str,
    bench: &[Span],
    ladder: &[Span],
    program: &[SpanRecord],
    metrics: &[Metric],
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"host\": {host},\n\"metrics\": {{",
        w.name()
    );
    let ms: Vec<String> =
        metrics.iter().map(|m| format!("\"{}\": [{}, \"{}\"]", m.name, m.value, m.unit)).collect();
    out.push_str(&ms.join(", "));
    out.push_str("},\n\"spans\": [\n");
    let mut lines: Vec<String> = bench
        .iter()
        .chain(ladder)
        .map(|s| {
            format!(
                "{{\"name\": \"{}\", \"trace\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"hashes\": {}}}",
                s.name, s.trace_id, s.id, s.parent, s.start_ns, s.end_ns, s.hashes
            )
        })
        .collect();
    lines.extend(program.iter().map(|s| {
        format!(
            "{{\"name\": \"service.{}\", \"trace\": {}, \"id\": {}, \"parent\": {}, \"duration_ns\": {}}}",
            s.name,
            s.trace_id,
            s.span_id,
            s.parent_span,
            s.duration.as_nanos()
        )
    }));
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]}\n");
    let path = dir.join(format!("{}-{seed}.trace.json", w.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written: {e}"),
    }
}
