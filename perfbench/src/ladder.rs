//! The layer ladder: one exhaustive search with a wrong target (so the
//! work is fixed at every Σ C(256, d ≤ max_d) seed) run through each
//! layer's public entry point in turn, from the SIMD kernel up to
//! `Dispatcher::submit`. Each rate is the median of a few repetitions and
//! is also stated as a fraction of the layer beneath it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbc_bits::U256;
use rbc_comb::{ChaseStream, ChaseTable};
use rbc_core::backend::{CpuBackend, SearchBackend, SearchJob};
use rbc_core::dispatch::{DispatchOutcome, Dispatcher, DispatcherConfig, RoutePolicy};
use rbc_core::engine::{EngineConfig, SearchEngine, SearchMode};
use rbc_core::pool::{SupervisedPool, SupervisedPoolConfig};
use rbc_core::shard::{run_shard, NullSink, ShardSpec, DEFAULT_CHECKPOINT_INTERVAL};
use rbc_core::DynHashDerive;
use rbc_hash::HashAlgo;
use rbc_net::LatencyModel;
use rbc_splitmix::SplitMix64;

use crate::drive::{Span, Spans};
use crate::stats::{median, ratio};

/// Seeds per kernel call in the `hash` step (the engine's widest batch).
const KERNEL_BATCH: usize = 1024;

/// Small d = 0 jobs timed through the dispatcher for its per-request
/// overhead.
const OVERHEAD_JOBS: usize = 64;

/// One rung: a layer, its rate, and the layer beneath it.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Layer (module) name.
    pub layer: &'static str,
    /// Median rate, million seeds (or masks) per second.
    pub rate: f64,
    /// The layer this one is stated against.
    pub base: Option<&'static str>,
}

/// The ladder's measurements.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    /// Rungs bottom-up: hash, comb, shard, engine, backend, pool, dispatch.
    pub rungs: Vec<Rung>,
    /// Engine prefix-prescreen false positives per prescreen hit.
    pub prefix_fp_ratio: f64,
    /// Median of `Dispatcher::submit` wall time minus the backend's own
    /// search time over small jobs, µs.
    pub dispatch_overhead_us: f64,
    /// A span per timed call.
    pub spans: Vec<Span>,
}

impl Ladder {
    /// The rate of `layer`.
    pub fn rate(&self, layer: &str) -> f64 {
        self.rungs.iter().find(|r| r.layer == layer).map_or(0.0, |r| r.rate)
    }

    /// `(name, ratio, base rate)` of every `<layer>.of_<base>` ratio.
    pub fn ratios(&self) -> Vec<(String, f64, f64)> {
        self.rungs
            .iter()
            .filter_map(|r| {
                let base = r.base?;
                let base_rate = self.rate(base);
                Some((format!("{}.of_{}", r.layer, base), ratio(r.rate, base_rate), base_rate))
            })
            .collect()
    }
}

fn random_u256(rng: &mut SplitMix64) -> U256 {
    let mut bytes = [0u8; 32];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    U256::from_le_bytes(&bytes)
}

/// Runs the ladder for `algo` at bound `max_d`, `reps` times per rung.
pub fn run(algo: HashAlgo, max_d: u32, seed: u64, reps: usize, spans: &Spans) -> Ladder {
    let mut rng = SplitMix64::new(seed ^ 0x001a_dde7);
    let s_init = random_u256(&mut rng);
    // A random target is ~128 bits from `s_init`: nothing within max_d
    // matches, so every layer sweeps the whole ball.
    let target = algo.digest_seed(&random_u256(&mut rng));
    let job = SearchJob::new(algo, target, s_init, max_d).with_mode(SearchMode::Exhaustive);
    let total: u64 = (0..=max_d).map(|d| rbc_comb::binomial(256, d) as u64).sum();
    let ring = rbc_comb::binomial(256, max_d) as u64;

    let engine = SearchEngine::new(
        DynHashDerive(algo),
        EngineConfig { mode: SearchMode::Exhaustive, ..EngineConfig::default() },
    );
    engine.prepare(max_d);
    let backend = CpuBackend::new(EngineConfig::default());
    let pool_backend: Arc<dyn SearchBackend> = Arc::new(CpuBackend::new(EngineConfig::default()));
    let pool: Arc<dyn SearchBackend> =
        Arc::new(SupervisedPool::new(vec![pool_backend], SupervisedPoolConfig::default()));
    let dispatcher = Dispatcher::new(
        vec![pool.clone()],
        DispatcherConfig {
            budget: LatencyModel::paper_wan().search_budget(Duration::from_secs(20)),
            policy: RoutePolicy::LeastLoaded,
            ..DispatcherConfig::default()
        },
    );
    let seeds: Vec<U256> = (0..KERNEL_BATCH).map(|_| s_init ^ random_u256(&mut rng)).collect();

    let mut ladder = Ladder::default();
    let mut fp_ratio = Vec::new();
    // (layer, base, span around the public call) bottom-up; each step
    // returns the seeds it swept.
    let steps: [(&'static str, Option<&'static str>, &'static str); 7] = [
        ("hash", None, "ladder.hash.prefix64_batch"),
        ("comb", None, "ladder.comb.ChaseStream::next_mask"),
        ("shard", Some("hash"), "ladder.shard.run_shard"),
        ("engine", Some("shard"), "ladder.engine.SearchEngine::search"),
        ("backend", Some("engine"), "ladder.backend.CpuBackend::submit"),
        ("pool", Some("backend"), "ladder.pool.SupervisedPool::submit"),
        ("dispatch", Some("pool"), "ladder.dispatch.Dispatcher::submit"),
    ];
    for (layer, base, span) in steps {
        let mut rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            let swept = match layer {
                "hash" => {
                    let mut out = Vec::with_capacity(KERNEL_BATCH);
                    let mut hashed = 0u64;
                    while hashed < total {
                        match algo {
                            HashAlgo::Sha1 => {
                                rbc_hash::dispatch::sha1_prefix64_batch(&seeds, &mut out)
                            }
                            _ => rbc_hash::dispatch::sha3_256_prefix64_batch(&seeds, &mut out),
                        }
                        black_box(&out);
                        hashed += KERNEL_BATCH as u64;
                    }
                    hashed
                }
                "comb" => {
                    let mut stream = ChaseStream::new_full(max_d);
                    let mut acc = U256::ZERO;
                    let mut n = 0u64;
                    while let Some(mask) = stream.next_mask() {
                        acc = acc ^ mask;
                        n += 1;
                    }
                    black_box(acc);
                    debug_assert_eq!(n, ring);
                    n
                }
                "shard" => (0..=max_d)
                    .flat_map(|d| ShardSpec::plan(&ChaseTable::build(d, 1), 0))
                    .map(|spec| {
                        run_shard(
                            &DynHashDerive(algo),
                            &target,
                            &s_init,
                            &spec,
                            None,
                            DEFAULT_CHECKPOINT_INTERVAL,
                            &NullSink,
                        )
                        .swept
                    })
                    .sum(),
                "engine" => {
                    let report = engine.search(&target, &s_init, max_d);
                    let hits = report.extra("prefix_hits").unwrap_or(0);
                    let fps = report.extra("prefix_false_positives").unwrap_or(0);
                    fp_ratio.push(ratio(fps as f64, hits as f64));
                    report.seeds_derived
                }
                "backend" => backend.submit(&job).seeds_derived,
                "pool" => pool.submit(&job).seeds_derived,
                _ => match dispatcher.submit(&job) {
                    DispatchOutcome::Completed { report, .. } => report.seeds_derived,
                    DispatchOutcome::Overloaded { .. } => 0,
                },
            };
            let end = Instant::now();
            ladder.spans.push(spans.span(span, 0, 0, start, end));
            rates.push(swept as f64 / end.duration_since(start).as_secs_f64() / 1e6);
        }
        ladder.rungs.push(Rung { layer, rate: median(&rates), base });
    }
    ladder.prefix_fp_ratio = median(&fp_ratio);

    let hit = SearchJob::new(algo, algo.digest_seed(&s_init), s_init, max_d);
    let overheads: Vec<f64> = (0..OVERHEAD_JOBS)
        .map(|_| {
            let start = Instant::now();
            let outcome = dispatcher.submit(&hit);
            let wall = start.elapsed();
            match outcome {
                DispatchOutcome::Completed { report, .. } => {
                    wall.saturating_sub(report.elapsed).as_secs_f64() * 1e6
                }
                DispatchOutcome::Overloaded { .. } => wall.as_secs_f64() * 1e6,
            }
        })
        .collect();
    ladder.dispatch_overhead_us = median(&overheads);
    ladder
}
