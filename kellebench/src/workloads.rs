//! The three workloads and their set-up: engine build, request generation,
//! prefix publication and warm-up.
//!
//! Why each workload exists is written down in `kellebench/README.md`.

use std::time::Instant;

use kelle::edram::RefreshPolicy;
use kelle::workloads::{PrefixHierarchy, SessionArchetype, TraceConfig, TraceEngine};
use kelle::{
    EngineConfig, FrontConfig, KelleEngine, PrefixSharingConfig, SchedulerConfig, ServeRequest,
    TierConfig,
};

use crate::spans::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short chat turns on the default engine (AERP, 2DRP faults), paced on
    /// the tick clock through the serving front-end.
    Chat2drp,
    /// Long document prompts under the conservative refresh policy (no
    /// faults), paced on the tick clock through the serving front-end.
    DocqaSafeRefresh,
    /// An offline batch sharing a published system→tool prefix, served at
    /// once by the parallel batch entry point under eDRAM tiering.
    PrefixBacklog,
}

/// Arrival schedule and shapes of one workload's request set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Requests per round.
    pub requests: usize,
    /// Mean inter-arrival gap on the scheduler's tick clock (> 1).
    pub mean_gap_ticks: f64,
    /// Fresh prompt tokens after the hierarchy prefix, inclusive range.
    pub fresh_tokens: (usize, usize),
    /// Decode tokens, inclusive range.
    pub decode_tokens: (usize, usize),
    /// Levels of the shared prefix: system, one of `tools` tool preambles,
    /// and a per-user level, in tokens.
    pub hierarchy: PrefixHierarchy,
}

/// Tokens of the prefix levels every tick-clock request starts with.  The
/// two tick-clock workloads run without prefix sharing, so these three
/// tokens are ordinary prompt tokens there.
const MINIMAL_HIERARCHY: PrefixHierarchy = PrefixHierarchy {
    system_tokens: 1,
    tools: 1,
    tool_tokens: 1,
    users: 1,
    user_tokens: 1,
};

/// Sessions whose KV the backlog's eDRAM tier holds at once.
const BACKLOG_EDRAM_SESSIONS: u64 = 6;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Chat2drp,
        Workload::DocqaSafeRefresh,
        Workload::PrefixBacklog,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat2drp => "chat_2drp",
            Workload::DocqaSafeRefresh => "docqa_safe_refresh",
            Workload::PrefixBacklog => "prefix_backlog",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests are paced on the tick clock through the front-end
    /// (otherwise they are served at once as one offline batch).
    pub fn tick_paced(self) -> bool {
        self != Workload::PrefixBacklog
    }

    /// The request-set shape.
    pub fn shape(self) -> Shape {
        match self {
            // 3 + 5..=13 = 8..=16 prompt tokens.
            Workload::Chat2drp => Shape {
                requests: 120,
                mean_gap_ticks: 3.0,
                fresh_tokens: (5, 13),
                decode_tokens: (8, 16),
                hierarchy: MINIMAL_HIERARCHY,
            },
            // 3 + 93..=189 = 96..=192 prompt tokens.  One arrival per 2
            // ticks makes every request's decode overlap a few other
            // requests' prefills; at one per 6 ticks about half overlap
            // none, and the TPOT median jumps between those two groups
            // from seed to seed.
            Workload::DocqaSafeRefresh => Shape {
                requests: 80,
                mean_gap_ticks: 2.0,
                fresh_tokens: (93, 189),
                decode_tokens: (4, 8),
                hierarchy: MINIMAL_HIERARCHY,
            },
            // 40 system + 12 tool + 4 user tokens of shared prefix.
            Workload::PrefixBacklog => Shape {
                requests: 300,
                mean_gap_ticks: 1.0,
                fresh_tokens: (4, 12),
                decode_tokens: (6, 12),
                hierarchy: PrefixHierarchy::new(40, 2, 12).with_users(1, 4),
            },
        }
    }

    fn engine_config(self) -> EngineConfig {
        let default = EngineConfig::default();
        match self {
            Workload::Chat2drp => default,
            Workload::DocqaSafeRefresh => EngineConfig {
                refresh_policy: RefreshPolicy::Conservative,
                ..default
            },
            Workload::PrefixBacklog => EngineConfig {
                refresh_policy: RefreshPolicy::Conservative,
                prefix: PrefixSharingConfig::enabled(),
                workers: host_parallelism(),
                ..default
            },
        }
    }
}

/// Worker threads available to this process.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One request and the tick it is due on.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Tick of the scheduler's clock the request is submitted on.
    pub tick: u64,
    /// The request.
    pub request: ServeRequest,
}

/// SplitMix64: the seeded stream that orders the stratified draws.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` evenly spaced values covering the inclusive range `(lo, hi)`, in an
/// order the stream picks.
fn stratified_lengths(rng: &mut SplitMix, (lo, hi): (usize, usize), n: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    let mut values: Vec<usize> = (0..n).map(|i| lo + (2 * i + 1) * span / (2 * n)).collect();
    rng.shuffle(&mut values);
    values
}

/// `n` inter-arrival gaps with mean `mean` > 1: one tick plus an
/// exponential gap at each of the exponential's `n` mid-quantiles, in an
/// order the stream picks.  The tick of dead time means at most one request
/// is due per tick.
fn stratified_gaps(rng: &mut SplitMix, mean: f64, n: usize) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| 1.0 - (mean - 1.0) * (1.0 - (i as f64 + 0.5) / n as f64).ln())
        .collect();
    rng.shuffle(&mut gaps);
    gaps
}

/// Generates a workload's seeded request set.  The same seed gives the same
/// requests and the same tick schedule.
///
/// Token content and each request's prefix leaf come from the trace engine
/// of `kelle_workloads`.  Prompt and decode lengths and the inter-arrival
/// gaps are stratified: every seed draws the same multiset (evenly spaced
/// lengths, the gap distribution's mid-quantiles) and the seed picks their
/// order.  A seed therefore changes which request comes when and what it
/// says, but not how much work the set holds, so runs on different seeds
/// measure the same load.  See [`stratified_gaps`] for the arrival
/// process.
pub fn generate(workload: Workload, seed: u64, vocab: usize) -> Vec<Arrival> {
    let shape = workload.shape();
    let n = shape.requests;
    let longest = SessionArchetype::new(
        workload.name(),
        1,
        (shape.fresh_tokens.1, shape.fresh_tokens.1),
    );
    let mut config = TraceConfig::poisson(n, shape.mean_gap_ticks)
        .with_archetypes(vec![longest])
        .with_hierarchy(shape.hierarchy)
        .with_seed(seed);
    config.vocab = vocab;
    let trace = TraceEngine::new(config).generate();

    let mut rng = SplitMix(seed ^ 0x6b65_6c6c_6562_656e);
    let fresh = stratified_lengths(&mut rng, shape.fresh_tokens, n);
    let decode = stratified_lengths(&mut rng, shape.decode_tokens, n);
    let gaps = stratified_gaps(&mut rng, shape.mean_gap_ticks, n);
    let depth = shape.hierarchy.depth_tokens();
    let mut now = 0.0;
    trace
        .requests
        .into_iter()
        .zip(fresh.into_iter().zip(decode).zip(gaps))
        .map(|(traced, ((fresh, decode), gap))| {
            now += gap;
            Arrival {
                tick: now.ceil() as u64,
                request: ServeRequest::new(traced.prompt[..depth + fresh].to_vec(), decode),
            }
        })
        .collect()
}

/// Wall time of each set-up phase, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `KelleEngine::new`.
    pub build_ms: f64,
    /// Request generation.
    pub generate_ms: f64,
    /// `publish_prefix_hierarchy` for every shared prefix (0 when unused).
    pub publish_ms: f64,
    /// All of the above plus one short warm-up request, in seconds.
    pub total_s: f64,
}

/// A workload ready to serve.
#[derive(Debug)]
pub struct Setup {
    /// Which workload.
    pub workload: Workload,
    /// The engine every round serves on.
    pub engine: KelleEngine,
    /// The seeded request set, in arrival order.
    pub arrivals: Vec<Arrival>,
    /// How long each set-up phase took.
    pub times: SetupTimes,
}

fn timed<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = tracer.scope(name, None, f);
    (result, start.elapsed().as_secs_f64() * 1e3)
}

impl Setup {
    /// Builds the engine, generates the requests, publishes the shared
    /// prefixes and serves one warm-up request.
    pub fn new(workload: Workload, seed: u64, tracer: &mut Tracer) -> Setup {
        let start = Instant::now();
        let (engine, build_ms) = timed(tracer, "build", || {
            KelleEngine::new(workload.engine_config())
        });
        let vocab = engine.model().dims().vocab;
        let (arrivals, generate_ms) = timed(tracer, "generate", || generate(workload, seed, vocab));
        let (_, publish_ms) = timed(tracer, "publish", || {
            if engine.prefix_config().enabled {
                publish_hierarchy(&engine, workload, seed, vocab);
            }
        });
        tracer.scope("warmup", None, || {
            let prompt = arrivals[0].request.prompt();
            engine.serve_one(&prompt[..prompt.len().min(8)], 2)
        });
        Setup {
            workload,
            engine,
            arrivals,
            times: SetupTimes {
                build_ms,
                generate_ms,
                publish_ms,
                total_s: start.elapsed().as_secs_f64(),
            },
        }
    }

    /// Scheduler configuration of a round.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        match self.workload {
            Workload::PrefixBacklog => {
                let shape = self.workload.shape();
                let tokens =
                    shape.hierarchy.depth_tokens() + shape.fresh_tokens.1 + shape.decode_tokens.1;
                let edram = self.engine.kv_footprint_bytes(tokens) * BACKLOG_EDRAM_SESSIONS;
                SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram))
            }
            _ => SchedulerConfig::default(),
        }
    }

    /// Front-end configuration of a tick-paced round: the default sticky
    /// executor, unbounded queue and streams.
    pub fn front_config(&self) -> FrontConfig {
        FrontConfig::new().with_scheduler(self.scheduler_config())
    }
}

fn publish_hierarchy(engine: &KelleEngine, workload: Workload, seed: u64, vocab: usize) {
    let shape = workload.shape();
    let mut config = TraceConfig::poisson(1, 1.0)
        .with_hierarchy(shape.hierarchy)
        .with_seed(seed);
    config.vocab = vocab;
    for publication in TraceEngine::new(config).publications() {
        engine.publish_prefix_hierarchy(&publication.tokens, &publication.boundaries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(arrivals: &[Arrival]) -> Vec<(u64, Vec<usize>, usize)> {
        arrivals
            .iter()
            .map(|a| (a.tick, a.request.prompt().to_vec(), a.request.decode_len()))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for workload in Workload::ALL {
            let a = schedule(&generate(workload, 1, 512));
            let b = schedule(&generate(workload, 1, 512));
            let c = schedule(&generate(workload, 2, 512));
            assert_eq!(a, b, "{}", workload.name());
            let ticks = |s: &[(u64, Vec<usize>, usize)]| s.iter().map(|r| r.0).collect::<Vec<_>>();
            if workload.tick_paced() {
                assert_ne!(ticks(&a), ticks(&c), "{}", workload.name());
            }
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn schedules_are_ordered_and_shaped() {
        for workload in Workload::ALL {
            let shape = workload.shape();
            let arrivals = generate(workload, 3, 512);
            assert_eq!(arrivals.len(), shape.requests);
            assert!(arrivals.windows(2).all(|w| w[0].tick <= w[1].tick));
            let depth = shape.hierarchy.depth_tokens();
            for arrival in &arrivals {
                let fresh = arrival.request.prompt().len() - depth;
                assert!((shape.fresh_tokens.0..=shape.fresh_tokens.1).contains(&fresh));
                let decode = arrival.request.decode_len();
                assert!((shape.decode_tokens.0..=shape.decode_tokens.1).contains(&decode));
            }
        }
    }

    #[test]
    fn every_seed_draws_the_same_lengths_and_gaps() {
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        let totals = |seed| {
            let arrivals = generate(Workload::Chat2drp, seed, 512);
            (
                sorted(arrivals.iter().map(|a| a.request.prompt().len()).collect()),
                sorted(arrivals.iter().map(|a| a.request.decode_len()).collect()),
            )
        };
        assert_eq!(totals(1), totals(2));
        let mut a = stratified_gaps(&mut SplitMix(1), 3.0, 50);
        let mut b = stratified_gaps(&mut SplitMix(2), 3.0, 50);
        assert_ne!(a, b);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 3.0).abs() < 0.2, "{mean}");
        assert!(a[0] >= 1.0, "one tick of dead time");
        assert_eq!(
            sorted(stratified_lengths(&mut SplitMix(3), (4, 8), 10)),
            vec![4, 4, 5, 5, 6, 6, 7, 7, 8, 8]
        );
    }

    #[test]
    fn at_most_one_request_is_due_per_tick() {
        for workload in [Workload::Chat2drp, Workload::DocqaSafeRefresh] {
            let arrivals = generate(workload, 9, 512);
            assert!(arrivals.windows(2).all(|w| w[0].tick < w[1].tick));
        }
    }

    #[test]
    fn tick_clock_rate_matches_the_shape() {
        for workload in [Workload::Chat2drp, Workload::DocqaSafeRefresh] {
            let arrivals = generate(workload, 5, 512);
            let last = arrivals.last().expect("non-empty").tick as f64;
            let per_request = last / arrivals.len() as f64;
            let mean = workload.shape().mean_gap_ticks;
            assert!((per_request / mean - 1.0).abs() < 0.1, "{per_request}");
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
