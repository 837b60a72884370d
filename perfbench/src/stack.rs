//! The workloads, the seeded inputs they send, and the server stack they
//! send them to.
//!
//! The stack is the untuned default a user gets, identical in every
//! workload: `AuthService` (LightSaber CA, `max_d = 3`, admission sized by
//! `AdmissionConfig::for_bound(3)`, receipts into an `Attribution` sink) →
//! `Dispatcher` (least-loaded, budget `paper_wan().search_budget(20 s)`) →
//! one `SupervisedPool` (default config) → one `CpuBackend` with
//! `EngineConfig::default()` (all cores). Workloads differ only in the
//! traffic they send.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbc_bits::U256;
use rbc_core::admission::{AdmissionConfig, AdmissionControl};
use rbc_core::backend::{CpuBackend, SearchBackend};
use rbc_core::ca::{CaConfig, CertificateAuthority};
use rbc_core::dispatch::{Dispatcher, DispatcherConfig, RoutePolicy};
use rbc_core::engine::{EngineConfig, SearchEngine};
use rbc_core::pool::{SupervisedPool, SupervisedPoolConfig};
use rbc_core::protocol::{ChallengeMsg, Client, DigestMsg, Verdict};
use rbc_core::service::AuthService;
use rbc_core::DynHashDerive;
use rbc_hash::HashAlgo;
use rbc_net::LatencyModel;
use rbc_pqc::LightSaber;
use rbc_puf::{ModelPuf, PufDevice};
use rbc_splitmix::SplitMix64;
use rbc_telemetry::{Attribution, Recorder, Registry};

/// The CA's search bound in every workload.
pub const MAX_D: u32 = 3;

/// Fewest scored requests in a full run.
const MIN_SCORED: usize = 300;

/// Identities the `flood` attacker rotates through.
const ATTACKERS: usize = 4;

/// Bits by which every attacker credential is off: beyond `MAX_D`, so an
/// admitted one sweeps the whole d ≤ 3 ball without an early exit.
const ATTACK_DISTANCE: u32 = 5;

/// Attack schedule length; the attacker cycles it until the honest
/// schedule is done.
const ATTACK_SCHEDULE: usize = 4096;

/// One of the three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SHA-1, one in-process connection, every credential 3 bits off.
    Deep,
    /// SHA-3, two RPC connections, every credential 1 bit off.
    Shallow,
    /// SHA-3, one honest and one attacking in-process connection.
    Flood,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "deep" => Some(Workload::Deep),
            "shallow" => Some(Workload::Shallow),
            "flood" => Some(Workload::Flood),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Deep => "deep",
            Workload::Shallow => "shallow",
            Workload::Flood => "flood",
        }
    }

    /// Digest hash of the workload's CA.
    pub fn algo(self) -> HashAlgo {
        match self {
            Workload::Deep => HashAlgo::Sha1,
            Workload::Shallow | Workload::Flood => HashAlgo::Sha3_256,
        }
    }

    /// Enrolled honest clients, rotated through so no token bucket
    /// refuses an honest request.
    fn honest_clients(self) -> usize {
        match self {
            Workload::Shallow => 256,
            Workload::Deep | Workload::Flood => 64,
        }
    }

    fn attackers(self) -> usize {
        if self == Workload::Flood {
            ATTACKERS
        } else {
            0
        }
    }

    /// Honest connections (the `flood` attacker is one more).
    pub fn connections(self) -> usize {
        if self == Workload::Shallow {
            2
        } else {
            1
        }
    }

    /// Whether the honest connections run over `rbc_net` RPC.
    pub fn on_wire(self) -> bool {
        self == Workload::Shallow
    }

    /// Scored requests per second of `--seconds`: the stack's throughput
    /// on a 2-core AVX-512 host when the benchmark was defined. The schedule
    /// is a fixed request count, not a duration: the CA keeps every
    /// `AuthRecord` in its log, so a faster build running for a fixed
    /// time would complete more requests and read as a memory regression.
    fn requests_per_second(self) -> f64 {
        match self {
            Workload::Deep => 8.4,
            Workload::Shallow => 280.0,
            Workload::Flood => 150.0,
        }
    }
}

/// One honest request: which client, and the exact error pattern its PUF
/// readout carries.
#[derive(Clone, Debug)]
pub struct Req {
    /// Index into the stack's client list.
    pub client: usize,
    /// Bits flipped in the readout; its weight is the planted distance.
    pub mask: U256,
    /// Planted Hamming distance: the only correct verdict is
    /// `Accepted { distance }`.
    pub distance: u32,
    /// Whether the benchmark traces this request (traced runs only).
    pub traced: bool,
}

/// One attacker request.
#[derive(Clone, Debug)]
pub struct Attack {
    /// Which of the attacker identities sends it.
    pub identity: usize,
    /// Error pattern of a fresh wrong credential.
    pub mask: U256,
    /// Replay an earlier wrong digest of this identity (picked by this
    /// value modulo its history) under a fresh session instead.
    pub replay: Option<usize>,
}

/// Every input of one run, generated from the seed before timing starts.
pub struct Plan {
    /// Each honest connection's requests, in order.
    pub conns: Vec<Vec<Req>>,
    /// The attacker's request cycle (`flood` only).
    pub attack: Vec<Attack>,
}

impl Plan {
    /// Builds the schedule of `workload` for `seconds` of nominal work
    /// (`short` shrinks it to a few requests). In a traced run requests
    /// come in pairs with the same input, one traced and one not, so the
    /// tracing overhead compares equal work.
    pub fn new(workload: Workload, seed: u64, seconds: u64, short: bool, traced: bool) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0bad_5eed);
        let conns = workload.connections();
        let per_conn = if short {
            20 / conns
        } else {
            let scored = (seconds as f64 * workload.requests_per_second()).ceil() as usize;
            // At least 15 samples beyond p95, so the tail is not a handful
            // of requests: 300 scored requests.
            scored.max(MIN_SCORED).div_ceil(conns * 2) * 2
        };
        let distinct = if traced { per_conn / 2 } else { per_conn };
        let honest = workload.honest_clients();

        // Deep credentials sit at stratified ranks of the d = 3 Chase
        // ring: the seed changes which masks are planted but not the
        // spread of search depths, so every run does the same work.
        let deep_masks: Vec<Vec<U256>> = if workload == Workload::Deep {
            let ring = rbc_comb::binomial(256, MAX_D) as u64;
            let ranks: Vec<Vec<u64>> = (0..conns)
                .map(|_| {
                    let mut strata: Vec<u64> = (0..distinct as u64).collect();
                    shuffle(&mut strata, &mut rng);
                    strata
                        .iter()
                        .map(|&s| {
                            let at = (s as f64 + rng.next_unit()) / distinct as f64;
                            ((at * ring as f64) as u64).min(ring - 1)
                        })
                        .collect()
                })
                .collect();
            let masks = chase_masks_at(ranks.iter().flatten().copied());
            ranks.iter().map(|r| r.iter().map(|k| masks[k]).collect()).collect()
        } else {
            Vec::new()
        };

        let mut next_client = 0usize;
        let mut flood_distances: Vec<u32> = Vec::new();
        let conns = (0..conns)
            .map(|c| {
                let mut reqs = Vec::with_capacity(per_conn);
                let deep = deep_masks.get(c);
                for i in 0..distinct {
                    let client = next_client % honest;
                    next_client += 1;
                    let (mask, distance) = match workload {
                        Workload::Deep => (deep.map_or(U256::ZERO, |m| m[i]), MAX_D),
                        Workload::Shallow => (random_mask(1, &mut rng), 1),
                        Workload::Flood => {
                            // Distances 0, 1, 2 in equal shares, shuffled
                            // in blocks of three.
                            if flood_distances.is_empty() {
                                flood_distances = vec![0, 1, 2];
                                shuffle(&mut flood_distances, &mut rng);
                            }
                            let d = flood_distances.pop().unwrap_or(0);
                            (random_mask(d, &mut rng), d)
                        }
                    };
                    let req = Req { client, mask, distance, traced: false };
                    if traced {
                        let first_traced = i % 2 == 0;
                        reqs.push(Req { traced: first_traced, ..req.clone() });
                        reqs.push(Req { traced: !first_traced, ..req });
                    } else {
                        reqs.push(req);
                    }
                }
                reqs
            })
            .collect();

        let attack = if workload.attackers() > 0 {
            (0..ATTACK_SCHEDULE)
                .map(|j| Attack {
                    identity: j % ATTACKERS,
                    mask: random_mask(ATTACK_DISTANCE, &mut rng),
                    replay: (rng.next_below(4) == 0).then(|| rng.next_u64() as usize),
                })
                .collect()
        } else {
            Vec::new()
        };
        Plan { conns, attack }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// A uniformly random mask of exactly `weight` bits.
fn random_mask(weight: u32, rng: &mut SplitMix64) -> U256 {
    let mut mask = U256::ZERO;
    while mask.count_ones() < weight {
        mask = mask.set_bit(rng.next_below(256) as usize);
    }
    mask
}

/// The d = 3 Chase-sequence masks at `ranks`, found in one pass over the
/// ring.
fn chase_masks_at(ranks: impl Iterator<Item = u64>) -> std::collections::HashMap<u64, U256> {
    let mut wanted: Vec<u64> = ranks.collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut found = std::collections::HashMap::with_capacity(wanted.len());
    let mut stream = rbc_comb::chase::ChaseStream::new_full(MAX_D);
    let mut rank = 0u64;
    for &want in &wanted {
        while rank < want {
            stream.next_mask();
            rank += 1;
        }
        let mask = stream.next_mask().expect("rank inside the ring");
        rank += 1;
        found.insert(want, mask);
    }
    found
}

/// The client's answer to `challenge`: reads the addressed PUF cells as
/// `Client::respond` does, flips the planted `mask`, hashes.
pub fn planted_respond(
    client: &Client<ModelPuf>,
    challenge: &ChallengeMsg,
    mask: &U256,
    rng: &mut StdRng,
) -> DigestMsg {
    let mut stream = U256::ZERO;
    for (i, &cell) in challenge.cells.iter().enumerate() {
        if client.device().read_cell(cell as usize, rng) {
            stream = stream.set_bit(i);
        }
    }
    DigestMsg {
        client_id: client.id,
        session: challenge.session,
        digest: challenge.algo.digest_seed(&(stream ^ *mask)),
        trace: challenge.trace,
    }
}

/// The server stack plus the enrolled client population.
pub struct Stack {
    /// The service every connection talks to.
    pub service: Arc<AuthService<LightSaber>>,
    /// The registry shared by service, dispatcher, pool, CA, admission,
    /// attribution and the RPC links.
    pub registry: Arc<Registry>,
    /// The receipt sink.
    pub attribution: Arc<Attribution>,
    /// Honest clients first, then the attacker identities.
    pub clients: Vec<Client<ModelPuf>>,
    /// Index of the first attacker identity in `clients`.
    pub first_attacker: usize,
    /// `complete` calls the warm-up made (they are in the service books).
    pub warmup_completes: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    rbc_splitmix::splitmix64(seed ^ salt.wrapping_mul(rbc_splitmix::GOLDEN_GAMMA))
}

/// Builds the stack, enrolls the population and warms up: SIMD probe,
/// poll-cost calibration, Chase tables, and one authentication per
/// warm-up client through the whole pipeline.
pub fn set_up(workload: Workload, seed: u64, recorder: Arc<dyn Recorder>) -> Stack {
    let registry = Arc::new(Registry::new());
    let cpu: Arc<dyn SearchBackend> = Arc::new(CpuBackend::new(EngineConfig::default()));
    let pool: Arc<dyn SearchBackend> = Arc::new(SupervisedPool::with_registry(
        vec![cpu],
        SupervisedPoolConfig::default(),
        registry.clone(),
    ));
    let dispatcher = Arc::new(Dispatcher::with_registry(
        vec![pool],
        DispatcherConfig {
            budget: LatencyModel::paper_wan().search_budget(Duration::from_secs(20)),
            policy: RoutePolicy::LeastLoaded,
            ..DispatcherConfig::default()
        },
        registry.clone(),
    ));

    let ca_cfg = CaConfig { max_d: MAX_D, algo: workload.algo(), ..CaConfig::default() };
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&mix(seed, 1).to_le_bytes());
    let mut ca = CertificateAuthority::new(key, LightSaber, ca_cfg);
    let mut enroll_rng = StdRng::seed_from_u64(mix(seed, 2));
    let first_attacker = workload.honest_clients();
    let population = first_attacker + workload.attackers();
    let clients: Vec<Client<ModelPuf>> = (0..population as u64)
        .map(|id| {
            let client = Client::new(id, ModelPuf::noiseless(4096, mix(seed, 0x1000 + id)));
            ca.enroll_client(id, client.device(), 0, &mut enroll_rng).expect("enrollment");
            client
        })
        .collect();

    let attribution = Arc::new(Attribution::new(registry.clone(), population));
    let admission = Arc::new(AdmissionControl::new(AdmissionConfig::for_bound(MAX_D), &registry));
    let service = Arc::new(
        AuthService::with_recorder(ca, dispatcher, recorder)
            .with_attribution(attribution.clone())
            .with_admission(admission),
    );

    rbc_hash::dispatch::active_level();
    rbc_core::batch::measured_poll_cost_ns();
    SearchEngine::new(DynHashDerive(workload.algo()), EngineConfig::default()).prepare(MAX_D);
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let warmup = 2usize;
    for (i, client) in clients.iter().take(warmup).enumerate() {
        let challenge = service.begin(&client.hello()).expect("warm-up hello");
        let digest = planted_respond(client, &challenge, &U256::ZERO.set_bit(i), &mut rng);
        let verdict = service.complete(&digest).expect("warm-up digest");
        assert!(
            matches!(verdict.verdict, Verdict::Accepted { distance: 1, .. }),
            "warm-up authentication failed: {:?}",
            verdict.verdict
        );
    }
    Stack {
        service,
        registry,
        attribution,
        clients,
        first_attacker,
        warmup_completes: warmup as u64,
    }
}
