//! Seeded input generation. The workload seed is the only source of
//! variation: it sets the sweep order, the mission-grid order, the drain
//! mix order and its rate jitter, and the stochastic master seed. The
//! program under test only ever receives the generated spec JSON.

use engine::{
    AttackerStrategy, BackendKind, ResponsePolicy, SamplingPlan, ScenarioConfig, ScenarioGrid,
    ScenarioSpec,
};
use gcsids::config::SystemConfig;
use ids::functions::RateShape;

/// SplitMix64: a tiny, fully specified generator, so the inputs for a seed
/// never change when the program's own RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A generated request: the spec's name and its JSON text.
#[derive(Clone)]
pub struct Request {
    pub name: String,
    pub json: String,
}

impl Request {
    pub fn of(spec: &ScenarioSpec) -> Self {
        Self {
            name: spec.name.clone(),
            json: spec.to_json(),
        }
    }
}

/// Mission horizon (s) shared by every mission grid: ≈0.5% of the
/// paper-default MTTSF (1.95e6 s). Every grid ends here, so each mission
/// request propagates the same uniformization depth.
const MISSION_HORIZON: f64 = 10_000.0;

/// Interior points of the four mission grids; the seed sets their order.
const MISSION_GRIDS: [[f64; 5]; 4] = [
    [2_000.0, 4_000.0, 6_000.0, 8_000.0, MISSION_HORIZON],
    [500.0, 1_000.0, 2_000.0, 5_000.0, MISSION_HORIZON],
    [1_000.0, 2_500.0, 5_000.0, 7_500.0, MISSION_HORIZON],
    [100.0, 3_000.0, 6_000.0, 9_000.0, MISSION_HORIZON],
];

/// The paper-default (N = 100) exact spec with mission grid `k`, or with
/// no grid for `None` (the cold template build).
pub fn mission_spec(k: Option<usize>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
    match k {
        Some(k) => {
            spec.name = format!("mission/grid{k}");
            spec.mission_times = MISSION_GRIDS[k].to_vec();
        }
        None => spec.name = "mission/steady".into(),
    }
    spec
}

/// The four mission requests in seed order.
pub fn mission_requests(seed: u64) -> Vec<Request> {
    let mut order: Vec<usize> = (0..MISSION_GRIDS.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    order
        .into_iter()
        .map(|k| Request::of(&mission_spec(Some(k))))
        .collect()
}

/// Attacker base rates of the sweep (the paper default 1/43200 s⁻¹ and a
/// factor of two either side).
const SWEEP_ATTACKER_RATES: [f64; 3] = [1.0 / 86_400.0, 1.0 / 43_200.0, 1.0 / 21_600.0];

/// The Figures 2–5 design space at N = 100: m × detection shape × λc ×
/// TIDS, 324 rate-only exact points in canonical (unshuffled) order.
pub fn sweep_specs() -> Vec<ScenarioSpec> {
    let mut base = ScenarioSpec::paper_default(BackendKind::Exact);
    base.name = "sweep".into();
    ScenarioGrid::new(base)
        .vote_participants(SystemConfig::paper_m_grid())
        .detection_shapes(&RateShape::all())
        .attacker_rates(&SWEEP_ATTACKER_RATES)
        .tids(SystemConfig::paper_tids_grid())
        .expand()
}

/// The 324 sweep requests in seed order.
pub fn sweep_requests(seed: u64) -> Vec<Request> {
    let mut reqs: Vec<Request> = sweep_specs().iter().map(Request::of).collect();
    Rng::new(seed).shuffle(&mut reqs);
    reqs
}

/// The accelerated 12-node crossval system: fails within ~1e5 s, so every
/// stochastic backend finishes a replication quickly.
pub fn hot_system() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = 12;
    cfg.vote_participants = 3;
    cfg.attacker.base_rate = 1.0 / 600.0;
    cfg.detection = cfg.detection.with_interval(120.0);
    cfg
}

/// Replications per stochastic request, sized so each request takes a
/// comparable share of a round.
pub const SPNSIM_REPS: u64 = 16_000;
pub const DES_REPS: u64 = 1_200;
pub const MOBILITY_REPS: u64 = 80;
pub const COMPARE_PAIRS: u64 = 400;

/// One round of the stochastic workload: fixed plans on the three
/// simulators plus the two arms of a CRN-paired burst-vs-baseline
/// comparison on the protocol DES.
pub struct StochasticRound {
    pub spnsim: Request,
    pub des: Request,
    pub mobility: Request,
    pub baseline: Request,
    pub burst: Request,
}

/// The burst attacker of the paired comparison (on/off-modulated capture).
pub fn burst_scenario() -> ScenarioConfig {
    ScenarioConfig {
        attacker: AttackerStrategy::Burst {
            on_rate: 1.0 / 5_000.0,
            off_rate: 1.0 / 5_000.0,
            multiplier: 6.0,
        },
        response: ResponsePolicy::Evict,
    }
}

/// Stochastic requests under `master_seed`, with `scale` dividing every
/// replication count (1 for the timed rounds).
pub fn stochastic_round(master_seed: u64, scale: u64) -> StochasticRound {
    let mut spec = ScenarioSpec::paper_default(BackendKind::SpnSim);
    spec.system = hot_system();
    spec.stochastic.max_time = 5.0e6;
    spec.stochastic.master_seed = master_seed;
    spec.mobility.dt = 2.0;
    let plan = |kind: BackendKind, reps: u64, spec: &ScenarioSpec| {
        let mut s = spec.clone();
        s.backend = kind;
        s.name = format!("stochastic/{}", kind.name());
        s.stochastic.sampling = SamplingPlan::Fixed((reps / scale).max(2));
        Request::of(&s)
    };
    let mut base = spec.clone();
    base.backend = BackendKind::Des;
    base.name = "stochastic/ab-baseline".into();
    base.stochastic.max_time = 1.0e6;
    base.stochastic.sampling = SamplingPlan::Fixed((COMPARE_PAIRS / scale).max(2));
    let mut burst = base.clone();
    burst.name = "stochastic/ab-burst".into();
    burst.scenario = Some(burst_scenario());
    StochasticRound {
        spnsim: plan(BackendKind::SpnSim, SPNSIM_REPS, &spec),
        des: plan(BackendKind::Des, DES_REPS, &spec),
        mobility: plan(BackendKind::MobilityDes, MOBILITY_REPS, &spec),
        baseline: Request::of(&base),
        burst: Request::of(&burst),
    }
}

/// Master seeds the timed stochastic rounds cycle through.
pub const STOCHASTIC_MASTER_SEEDS: usize = 32;

/// Master seeds of the timed stochastic rounds for a workload seed.
pub fn stochastic_master_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..STOCHASTIC_MASTER_SEEDS)
        .map(|_| rng.next_u64() >> 1)
        .collect()
}

/// Master seed of the reference round checked against the committed
/// outputs (the crossval fixtures' seed).
pub const REFERENCE_MASTER_SEED: u64 = 2009;

/// The committed fixture specs the drain spool is generated from.
const FIXTURES: [(&str, &str); 11] = [
    ("ab-baseline", include_str!("../specs/ab-baseline.json")),
    ("ab-burst", include_str!("../specs/ab-burst.json")),
    ("ab-quarantine", include_str!("../specs/ab-quarantine.json")),
    ("ab-stealth", include_str!("../specs/ab-stealth.json")),
    ("ab-targeted", include_str!("../specs/ab-targeted.json")),
    ("ab-throttle", include_str!("../specs/ab-throttle.json")),
    (
        "clustered-mission",
        include_str!("../specs/clustered-mission.json"),
    ),
    (
        "collusion-none-mission",
        include_str!("../specs/collusion-none-mission.json"),
    ),
    ("hot-adaptive", include_str!("../specs/hot-adaptive.json")),
    ("hot-longrun", include_str!("../specs/hot-longrun.json")),
    ("hot-mission", include_str!("../specs/hot-mission.json")),
];

fn fixture(name: &str) -> ScenarioSpec {
    let text = FIXTURES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .expect("fixture listed in FIXTURES");
    ScenarioSpec::from_json(text).expect("committed fixture spec parses")
}

/// Flat exact fixtures: one structural family (N = 12), so the drain's
/// template cache serves all of them after one cold build.
const FLAT: [&str; 4] = [
    "hot-mission",
    "collusion-none-mission",
    "hot-adaptive",
    "hot-longrun",
];
const SCENARIOS: [&str; 6] = [
    "ab-baseline",
    "ab-burst",
    "ab-quarantine",
    "ab-stealth",
    "ab-targeted",
    "ab-throttle",
];

/// Jobs of each kind in the drain spool.
pub const DRAIN_FLAT_EXACT: usize = 16;
pub const DRAIN_SCENARIO_EXACT: usize = 6;
pub const DRAIN_CLUSTERED_EXACT: usize = 2;
pub const DRAIN_DES: usize = 26;
pub const DRAIN_JOBS: usize =
    DRAIN_FLAT_EXACT + DRAIN_SCENARIO_EXACT + DRAIN_CLUSTERED_EXACT + DRAIN_DES;
/// Replications of each DES job with a fixed plan.
pub const DRAIN_DES_REPS: u64 = 100;

/// Rate jitter of a drain job: attacker rate and detection interval each
/// scaled by a factor in [0.9, 1.1). Rate-only, so the flat family key and
/// every job's state space stay fixed.
fn jitter(spec: &mut ScenarioSpec, rng: &mut Rng) {
    spec.system.attacker.base_rate *= rng.uniform(0.9, 1.1);
    let tids = spec.system.detection.base_interval * rng.uniform(0.9, 1.1);
    spec.system = spec.system.with_tids(tids);
}

/// The drain spool: `(file stem, spec JSON)` in submission order. The mix
/// is fixed — 16 flat exact jobs (1 miss + 15 cache hits), 6 scenario and
/// 2 clustered exact jobs and 26 DES jobs (34 bypasses) — and the seed
/// sets each exact job's rate jitter and the submission order. DES jobs
/// keep their fixture's rates: a simulation's cost grows with them, and
/// jitter there would make the work of a drain depend on the seed.
pub fn drain_requests(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0xD7A1_5EED);
    let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(DRAIN_JOBS);
    let mut push = |mut spec: ScenarioSpec, rng: &mut Rng, tag: String| {
        if matches!(spec.backend, BackendKind::Exact) {
            jitter(&mut spec, rng);
        }
        spec.name = tag;
        specs.push(spec);
    };
    for i in 0..DRAIN_FLAT_EXACT {
        let name = FLAT[i % FLAT.len()];
        push(fixture(name), &mut rng, format!("{name}-exact-{i:02}"));
    }
    for i in 0..DRAIN_SCENARIO_EXACT {
        let name = SCENARIOS[i % SCENARIOS.len()];
        push(fixture(name), &mut rng, format!("{name}-exact-{i:02}"));
    }
    for i in 0..DRAIN_CLUSTERED_EXACT {
        push(
            fixture("clustered-mission"),
            &mut rng,
            format!("clustered-mission-exact-{i:02}"),
        );
    }
    let des_sources: Vec<&str> = FLAT.iter().chain(SCENARIOS.iter()).copied().collect();
    for i in 0..DRAIN_DES {
        let name = des_sources[i % des_sources.len()];
        let mut spec = fixture(name);
        spec.backend = BackendKind::Des;
        if matches!(spec.stochastic.sampling, SamplingPlan::Fixed(_)) {
            spec.stochastic.sampling = SamplingPlan::Fixed(DRAIN_DES_REPS);
        }
        push(spec, &mut rng, format!("{name}-des-{i:02}"));
    }
    rng.shuffle(&mut specs);
    // The service claims spool files in name order: prefix the position
    // so the seeded order is the processing order.
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| Request {
            name: format!("{i:03}-{}", spec.name),
            json: spec.to_json(),
        })
        .collect()
}
