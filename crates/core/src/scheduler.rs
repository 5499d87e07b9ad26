//! Continuous-batching scheduler with shared-capacity admission control.
//!
//! [`BatchScheduler`] keeps many [`Session`]s in flight at once, arbitrating
//! one shared eDRAM budget across them.  Serving is a three-stage pipeline:
//!
//! 1. **Submit** — [`submit`](BatchScheduler::submit) enqueues a request into
//!    the waiting queue.  It does *not* guarantee immediate service.
//! 2. **Admit** — a configurable [`AdmissionPolicy`] promotes waiting
//!    requests into active decode slots whenever the [`CapacityLedger`] can
//!    host their prefill KV footprint (computed at full hardware scale, the
//!    same per-token byte cost [`Platform::simulate`](kelle_arch::Platform)
//!    charges).  Admission pre-fills the prompt and opens a capacity lease.
//! 3. **Step** — each [`step`](BatchScheduler::step) runs one decode step for
//!    every active request in admission order (round-robin fairness), grows
//!    each lease by the decoded token's KV bytes, releases capacity when a
//!    request completes, and back-fills from the waiting queue.
//!
//! # Equivalence guarantee
//!
//! Sessions are functionally independent (each owns its cache and fault
//! stream), so *capacity arbitration changes cost and ordering, never sampled
//! tokens*: for any capacity and admission policy, every request's generated
//! token stream is byte-identical to serving it alone or through the
//! unbounded scheduler — the integration and property tests assert this for
//! random request mixes.  Contention shows up in two places only: the
//! hardware cost model (a request whose peak-concurrency share of the eDRAM
//! is smaller than its working set has the excess charged at DRAM access
//! cost) and the queueing metrics of [`BatchOutcome::contention`].
//!
//! # Capacity model
//!
//! The ledger tracks each session's *full-scale* KV bytes — per-token bytes
//! under the platform's cache policy (AERP stores popular tokens as input
//! vectors at half cost) times layers, times the hardware batch size, with
//! the token count capped at the hardware budget `N'`.  Admission checks the
//! prompt's prefill footprint; decode growth is never refused (a live request
//! cannot be paused mid-token), so the ledger may oversubscribe.  A request
//! whose peak concurrency exceeded the arbitrated capacity is costed against
//! a proportional slice of the on-chip KV memory,
//! `min(capacity, physical) x my_bytes / peak_concurrent_bytes`, instead of
//! the whole device; the bytes that lose on-chip residency are reported as
//! spill and charged at [`DramSpec`](kelle_edram::DramSpec) cost.  With
//! unbounded capacity (the default) every request is admitted at submit time
//! with the whole memory granted, reproducing the PR 1 scheduler exactly.

use crate::chaos::{
    ChaosConfig, ChaosMetrics, ChaosPlan, Checkpoint, MigrationFaults, ServeError, ShedReason,
};
use crate::engine::{EngineStats, KelleEngine, ServeOutcome};
use crate::parallel::{
    InlineExecutor, ParallelAxis, ParallelMetrics, SessionTask, StepExecutor, TaskOutput,
};
use crate::session::{ServeRequest, Session};
use crate::tier::{TierConfig, TierManager, TieringMetrics};
use kelle_arch::{PhaseMetrics, PlatformReport};
use kelle_cache::{BudgetPartitioner, CacheBudget, PartitionMode};
use kelle_edram::{CapacityLedger, LeaseId};
use kelle_model::{CacheStats, DecodeStep, DecodeTrace, FaultStats};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Which waiting request the admission stage promotes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Strict first-come-first-served: only the head of the queue is ever
    /// considered, so a large request at the head blocks everything behind it
    /// (no starvation, head-of-line blocking possible).
    #[default]
    Fcfs,
    /// Shortest-prompt-first: the waiting request with the smallest prefill
    /// footprint is considered first (better queue latency for small
    /// requests; a large request can be overtaken indefinitely).
    ShortestPromptFirst,
    /// First-fit: the queue is scanned in arrival order and every request
    /// whose footprint fits is admitted, skipping over those that do not.
    CapacityFit,
}

impl AdmissionPolicy {
    /// All policies, for sweeps.
    pub fn all() -> [AdmissionPolicy; 3] {
        [
            AdmissionPolicy::Fcfs,
            AdmissionPolicy::ShortestPromptFirst,
            AdmissionPolicy::CapacityFit,
        ]
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::ShortestPromptFirst => "shortest-prompt-first",
            AdmissionPolicy::CapacityFit => "capacity-fit",
        }
    }
}

/// Configuration of the admission pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Shared KV-memory budget concurrent requests contend for, in full-scale
    /// bytes.  `None` (the default) is the unbounded single-tenant model of
    /// the PR 1 scheduler: every request is admitted at submit time and
    /// costed against the whole KV memory.
    pub kv_capacity_bytes: Option<u64>,
    /// How waiting requests are promoted when capacity frees up.
    pub admission: AdmissionPolicy,
    /// The tiered KV memory hierarchy (see [`crate::tier`]).  `None` (the
    /// default) runs the flat single-budget model above.  When set (and
    /// `kv_capacity_bytes` is `None`), the ledger spans the *whole
    /// hierarchy* while admission plans against the eDRAM tier's budget
    /// only; resident KV is demoted/promoted across tiers with migration
    /// costs reported in [`BatchOutcome::tiering`].
    pub tiering: Option<TierConfig>,
    /// Which parallelism axis [`step_with`](BatchScheduler::step_with) fans
    /// decode compute out on (executors without a second axis, like
    /// [`InlineExecutor`], ignore it).  `#[serde(default)]` keeps configs
    /// serialized before this field loadable; the default
    /// ([`ParallelAxis::Auto`]) picks per tick based on batch width.
    #[serde(default)]
    pub parallel_axis: ParallelAxis,
    /// Deterministic fault injection (see [`crate::chaos`]).  `None` or an
    /// all-zero config disables injection entirely — the chaos path then
    /// takes no checkpoints and allocates nothing extra per tick.
    #[serde(default)]
    pub chaos: Option<ChaosConfig>,
    /// The serving-level objective the batch is judged against (see
    /// [`SloSpec`]).  Purely observational: the spec never changes
    /// scheduling decisions or token streams, it only classifies each
    /// completed request as meeting or missing the objective in the final
    /// [`SloReport`].  The default accepts everything.
    #[serde(default)]
    pub slo: SloSpec,
}

impl SchedulerConfig {
    /// Unbounded capacity, FCFS admission (the PR 1-equivalent default).
    pub fn unbounded() -> Self {
        SchedulerConfig::default()
    }

    /// Contend for `bytes` of shared KV capacity (builder style).  A zero
    /// capacity (easily produced by scaling a footprint down to nothing) is
    /// clamped to one byte — the most starved budget expressible — instead
    /// of panicking deep inside the ledger.
    pub fn with_kv_capacity_bytes(mut self, bytes: u64) -> Self {
        self.kv_capacity_bytes = Some(bytes.max(1));
        self
    }

    /// Sets the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Enables the tiered KV memory hierarchy (builder style).  Usually
    /// combined with an unbounded `kv_capacity_bytes`: capacity pressure is
    /// then expressed through the eDRAM tier budget and demotion, not
    /// through admission-queue starvation.
    pub fn with_tiering(mut self, tiering: TierConfig) -> Self {
        self.tiering = Some(tiering);
        self
    }

    /// Sets the decode parallelism axis (builder style).
    /// [`ParallelAxis::Auto`] — the default — switches between session
    /// fan-out and intra-session per-head fan-out based on how wide the
    /// batch is each tick; both axes are bit-identical, so this knob only
    /// moves wall-clock time.
    pub fn with_parallel_axis(mut self, axis: ParallelAxis) -> Self {
        self.parallel_axis = axis;
        self
    }

    /// Enables deterministic fault injection (builder style).  The plan is
    /// seeded from the config, so two schedulers built from equal configs
    /// inject the identical fault sequence.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the serving-level objective requests are judged against in the
    /// final [`SloReport`] (builder style).  Observational only.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }
}

/// One token generated during a scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Index of the request (submission order) that produced the token.
    pub request: usize,
    /// The generated token.
    pub token: usize,
    /// Whether this token completed the request.
    pub finished: bool,
}

/// One streaming event of the event-aware driving loop
/// ([`BatchScheduler::try_run_to_completion_events_with`]) and the
/// `kelle::front` token streams: a generated token, or a request leaving the
/// batch early.
///
/// The classic `on_token` callbacks only ever see tokens — a shed request
/// simply went quiet until the final [`BatchOutcome`] reported why.  This
/// event stream closes that gap: deadline/timeout sheds, cancellations,
/// drains and worker losses surface *as they happen*, after the tick's
/// tokens, in request-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// A generated token (identical to the [`StepEvent`] stream).
    Token {
        /// Index of the request (submission order) that produced the token.
        request: usize,
        /// The generated token.
        token: usize,
        /// Whether this token completed the request.
        finished: bool,
    },
    /// A request was finalized early; its outcome carries whatever tokens it
    /// had generated and this reason.
    Shed {
        /// Index of the shed request.
        request: usize,
        /// Why it was shed.
        reason: ShedReason,
    },
}

/// Queueing and capacity accounting for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTiming {
    /// Scheduler tick at which the request was submitted.
    pub submitted_tick: u64,
    /// Tick at which admission promoted it into a decode slot.
    pub admitted_tick: u64,
    /// Tick at which its last token was generated.
    pub finished_tick: u64,
    /// Tick at which its first decode token committed (`None` for requests
    /// shed before producing any output).  `first_token_tick -
    /// submitted_tick` is the request's time-to-first-token.
    #[serde(default)]
    pub first_token_tick: Option<u64>,
    /// Ticks spent in the waiting queue (`admitted - submitted`).
    pub queue_ticks: u64,
    /// Final full-scale KV footprint of the request's *private* lease in
    /// bytes (prompt suffix + decode growth).  Bytes of a matched shared
    /// prefix are charged once batch-wide through the ledger's shared pool
    /// and reported in [`PrefixBatchMetrics`], not here.
    pub kv_bytes: u64,
    /// Peak total live bytes observed on the ledger while this request was
    /// active — the contention it actually experienced.
    pub peak_concurrent_bytes: u64,
    /// On-chip KV residency granted by the arbiter (`None` when the request
    /// was never contended and got the whole memory).
    pub granted_bytes: Option<u64>,
    /// KV bytes that lost on-chip residency to contention (relative to the
    /// single-tenant residency), served from DRAM instead.
    pub spill_bytes: u64,
}

/// Batch-level prefix-sharing metrics (see [`crate::prefix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefixBatchMetrics {
    /// Requests whose first prompt matched a published prefix.
    pub hit_requests: u64,
    /// Prompt tokens served from shared segments instead of being
    /// recomputed.
    pub hit_tokens: u64,
    /// Full-scale KV bytes this batch charged to the shared pool — one
    /// charge per prefix *residency period*.  While any session holds a
    /// prefix it is charged once regardless of how many attach; a prefix
    /// whose last session detaches and that is later re-attached opens a
    /// new residency period and charges (and counts here) again.
    pub shared_bytes: u64,
    /// Full-scale KV bytes deduplication kept off the ledger: every
    /// attachment that joined an already-charged prefix would have
    /// re-charged it in a sharing-oblivious stack.
    pub deduplicated_bytes: u64,
}

/// Batch-level contention metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ContentionMetrics {
    /// The arbitrated capacity (`None` = unbounded).
    pub capacity_bytes: Option<u64>,
    /// Ledger high-water mark: peak live KV bytes across the whole batch.
    pub peak_residency_bytes: u64,
    /// Total KV bytes charged at DRAM cost because contention shrank their
    /// requests' on-chip shares.
    pub spill_bytes: u64,
    /// Sum of queue ticks across requests.
    pub total_queue_ticks: u64,
    /// Longest time any request spent queueing.
    pub max_queue_ticks: u64,
    /// Per-request timings, in submission order.
    pub per_request: Vec<RequestTiming>,
}

impl ContentionMetrics {
    /// Mean ticks a request spent in the waiting queue.
    pub fn mean_queue_ticks(&self) -> f64 {
        if self.per_request.is_empty() {
            0.0
        } else {
            self.total_queue_ticks as f64 / self.per_request.len() as f64
        }
    }
}

/// A serving-level objective: the latency bounds a request must meet to
/// count toward goodput.
///
/// Latencies are measured in scheduler *ticks* — the deterministic time base
/// of the batch pipeline (one tick = one decode round) — so the same trace
/// produces the identical [`SloReport`] on any host and worker count.  The
/// default spec accepts every completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum acceptable time-to-first-token, in ticks from submission
    /// (queueing included).
    pub ttft_ticks: u64,
    /// Maximum acceptable mean time-per-output-token over the request's
    /// decode phase, in ticks (requests with fewer than two tokens have no
    /// measurable TPOT and pass this bound).
    pub tpot_ticks: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            ttft_ticks: u64::MAX,
            tpot_ticks: f64::MAX,
        }
    }
}

impl SloSpec {
    /// A spec bounding both time-to-first-token and time-per-output-token.
    pub fn new(ttft_ticks: u64, tpot_ticks: f64) -> Self {
        SloSpec {
            ttft_ticks,
            tpot_ticks,
        }
    }

    /// Whether a completed request with this TTFT/TPOT meets the objective.
    /// `tpot` is `None` when the request produced fewer than two tokens.
    pub fn met_by(&self, ttft_ticks: u64, tpot: Option<f64>) -> bool {
        ttft_ticks <= self.ttft_ticks && tpot.is_none_or(|t| t <= self.tpot_ticks)
    }
}

/// Order statistics of one latency distribution, in ticks.
///
/// Percentiles are nearest-rank over the sorted samples (`p50` of one sample
/// is that sample), so equal sample sets summarize identically on every
/// host.  An empty distribution summarizes to all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples summarized.
    pub samples: u64,
}

impl LatencySummary {
    /// Summarizes a sample set (order irrelevant; the samples are sorted).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let k = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[k - 1]
        };
        LatencySummary {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            max: samples[samples.len() - 1],
            samples: samples.len() as u64,
        }
    }
}

/// Per-batch serving-quality report: TTFT/TPOT/queue-time distributions and
/// goodput under the configured [`SloSpec`].
///
/// Collected on every [`BatchOutcome`] (the spec defaults to
/// accept-everything, so the report costs nothing to always produce).  All
/// latencies are deterministic scheduler ticks: the same submitted trace
/// yields the bit-identical report at any worker count — the CI determinism
/// gate asserts exactly this.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SloReport {
    /// The objective requests were judged against.
    pub spec: SloSpec,
    /// Requests submitted.
    pub requests: u64,
    /// Requests that ran to natural completion.
    pub completed: u64,
    /// Requests shed (deadline, queue timeout, cancel, drain, worker loss).
    pub shed: u64,
    /// Time-to-first-token distribution over requests that produced output,
    /// in ticks from submission.
    pub ttft: LatencySummary,
    /// Mean time-per-output-token distribution over completed requests with
    /// at least two tokens, in ticks.
    pub tpot: LatencySummary,
    /// Queue-wait distribution over all requests, in ticks.
    pub queue: LatencySummary,
    /// Completed requests that met the objective.
    pub goodput_requests: u64,
    /// Tokens generated by those requests.
    pub goodput_tokens: u64,
    /// Tokens generated by the whole batch (shed partials included).
    pub total_tokens: u64,
    /// Ticks the batch ran for.
    pub ticks: u64,
}

impl SloReport {
    /// Fraction of submitted requests that completed *and* met the
    /// objective — the headline goodput number.
    pub fn goodput_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.goodput_requests as f64 / self.requests as f64
        }
    }

    /// SLO-meeting tokens per kilo-tick: goodput as a throughput, scale-free
    /// across trace lengths.
    pub fn goodput_tokens_per_kilotick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.goodput_tokens as f64 * 1000.0 / self.ticks as f64
        }
    }
}

/// Everything produced by a batch of requests.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<ServeOutcome>,
    /// Aggregate statistics of the batch: the component-wise sum of the
    /// per-request outcomes, equal to what serving the batch sequentially
    /// would have added to [`KelleEngine::stats`].
    pub stats: EngineStats,
    /// Queueing and shared-capacity accounting.
    pub contention: ContentionMetrics,
    /// Prefix-sharing accounting (all zeros when sharing is disabled).
    pub prefix: PrefixBatchMetrics,
    /// Tiered-memory accounting (all zeros when tiering is disabled).
    /// Migration time and energy live only here — per-request hardware
    /// reports and [`BatchOutcome::stats`] are identical to an
    /// unlimited-eDRAM run.
    pub tiering: TieringMetrics,
    /// Fault-injection and recovery accounting (all zeros when chaos is
    /// disabled and nothing was shed, cancelled or drained).
    pub chaos: ChaosMetrics,
    /// Cross-thread traffic accounting of the executor protocol (all zeros
    /// for inline serving).  Like [`BatchOutcome::tiering`], these are
    /// *cost* metrics: every execution mode produces bit-identical streams,
    /// and this is where the sticky-shard executor's saved queue traffic
    /// becomes a measured number.
    pub parallel: ParallelMetrics,
    /// Serving-quality report: TTFT/TPOT/queue-time distributions and
    /// goodput under the configured [`SloSpec`].
    pub slo: SloReport,
}

impl BatchOutcome {
    /// The batch's metric blocks as one serializable [`BatchReport`] —
    /// everything except the per-request outcomes, which carry borrowed
    /// engine state and stay on the outcome itself.
    pub fn report(&self) -> BatchReport {
        BatchReport {
            contention: self.contention.clone(),
            prefix: self.prefix,
            tiering: self.tiering,
            parallel: self.parallel,
            chaos: self.chaos,
            slo: self.slo.clone(),
        }
    }
}

/// Every metric block of a [`BatchOutcome`] under one serializable roof:
/// contention, prefix sharing, tiering, executor traffic, chaos recovery and
/// the SLO report.
///
/// This is the interchange format between the scheduler and the reporting
/// layers (`kelle-bench` JSON artifacts, `tables`): benches serialize a
/// `BatchReport` instead of hand-extracting individual blocks.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchReport {
    /// Queueing and shared-capacity accounting.
    pub contention: ContentionMetrics,
    /// Prefix-sharing accounting.
    pub prefix: PrefixBatchMetrics,
    /// Tiered-memory accounting.
    pub tiering: TieringMetrics,
    /// Executor-protocol traffic accounting.
    pub parallel: ParallelMetrics,
    /// Fault-injection and recovery accounting.
    pub chaos: ChaosMetrics,
    /// Serving-quality report.
    pub slo: SloReport,
}

/// Error returned by [`BatchScheduler::finish`] when requests are still
/// waiting or decoding.  The scheduler is handed back inside the error —
/// nothing in flight is lost — so the caller can
/// [`resume`](BatchIncomplete::resume) it and keep stepping.
#[derive(Debug)]
pub struct BatchIncomplete<'e> {
    /// Requests still decoding.
    pub active: usize,
    /// Requests still in the waiting queue.
    pub waiting: usize,
    scheduler: Box<BatchScheduler<'e>>,
}

impl<'e> BatchIncomplete<'e> {
    /// Recovers the scheduler, with every queued and in-flight request
    /// intact, so it can be driven to completion.
    pub fn resume(self) -> BatchScheduler<'e> {
        *self.scheduler
    }
}

impl std::fmt::Display for BatchIncomplete<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch is not finished: {} request(s) still decoding, {} waiting",
            self.active, self.waiting
        )
    }
}

impl std::error::Error for BatchIncomplete<'_> {}

struct Slot<'e> {
    request: ServeRequest,
    /// `Some` between public calls — unless the slot is `parked`, in which
    /// case the session lives on its sticky executor shard; taken while the
    /// session is out on a worker executing this tick's decode step.
    session: Option<Session<'e>>,
    prefilled: usize,
    generated: Vec<usize>,
    trace: DecodeTrace,
    remaining: usize,
    lease: LeaseId,
    peak_concurrent_bytes: u64,
    /// Shared-pool attachment for the request's prefix hit, if any:
    /// `(tag, full-scale bytes)`.
    shared: Option<(u64, u64)>,
    /// Coordinator mirror of the session's token position, updated at every
    /// commit — the scheduler can observe a parked session's cursor without
    /// recalling it.
    position: usize,
    /// Backpressure: a paused slot is skipped by decode fan-out (its session
    /// stays exactly where it is) until resumed.  Pausing can never change a
    /// stream — a session is a pure function of its own state — only *when*
    /// its tokens are produced.
    paused: bool,
    /// Sticky execution: the session is parked on its executor shard and
    /// `session` is `None` until it is recalled.
    parked: bool,
    /// Worker that ran the last committed step (`None`: coordinator) —
    /// feeds [`ParallelMetrics::sessions_migrated`].
    last_worker: Option<usize>,
}

/// An admitted request whose prefill is executing (possibly on a worker):
/// the ledger state was committed at admission time, the session comes back
/// through the executor.
struct Admitted {
    request: ServeRequest,
    lease: LeaseId,
    shared: Option<(u64, u64)>,
    /// Ledger live bytes right after this admission's reservations — the
    /// value sequential serving records as the slot's initial
    /// `peak_concurrent_bytes` (captured here because later admissions in
    /// the same pump land on the ledger before the prefill returns).
    live_at_admission: u64,
}

/// Admission sizing of a waiting request: the bytes charged privately plus
/// the shared-pool attachment (charged once across the batch).
#[derive(Debug, Clone, Copy)]
struct AdmissionFootprint {
    private_bytes: u64,
    /// `(tag, bytes)` of the prefix the request will attach to.
    shared: Option<(u64, u64)>,
}

/// One decode step awaiting the coordinator commit, unified across the two
/// fan-out shapes: a classic [`TaskOutput`] (whole session moved back) and a
/// sticky [`StickyStep`](crate::parallel::StickyStep) (session stayed on its
/// shard).  The commit loop runs over these in request-index order, so both
/// shapes commit bit-identically.
struct PendingCommit {
    index: usize,
    step: DecodeStep,
    /// Session position before the step (for the lease-growth delta).
    tokens_before: usize,
    /// Session position after the step (the slot's new mirror).
    position: usize,
    /// Worker that ran the step (`None`: coordinator).
    worker: Option<usize>,
}

enum RequestState<'e> {
    Waiting(ServeRequest),
    /// Admission committed, prefill in flight through the executor; never
    /// observable between public calls (admission pumps always flush).
    Admitted(Box<Admitted>),
    Active(Box<Slot<'e>>),
    Finished(ServeOutcome),
    /// Transient placeholder while ownership moves through
    /// activation/completion; never observable between public calls.
    Taken,
}

/// Interleaves decode steps across many in-flight serving sessions under
/// shared-capacity admission control (see the [module docs](self)).
pub struct BatchScheduler<'e> {
    engine: &'e KelleEngine,
    config: SchedulerConfig,
    ledger: CapacityLedger,
    tier: Option<TierManager>,
    states: Vec<RequestState<'e>>,
    timings: Vec<RequestTiming>,
    waiting: VecDeque<usize>,
    /// Requests submitted with a future [`ServeRequest::arrival_tick`],
    /// keyed `(arrival, index)`: they join the waiting queue — and become
    /// visible to admission — only once the tick clock reaches their
    /// arrival.  This is how a trace's open-loop arrival process drives the
    /// scheduler deterministically.
    scheduled: BinaryHeap<Reverse<(u64, usize)>>,
    stats: EngineStats,
    tick: u64,
    spill_bytes: u64,
    prefix: PrefixBatchMetrics,
    /// Seeded fault-injection plan; `None` when chaos is disabled.
    chaos: Option<ChaosPlan>,
    chaos_metrics: ChaosMetrics,
    /// Last committed-boundary checkpoint per active request.  Populated
    /// only while chaos is enabled, so the chaos-off decode path stays
    /// allocation-free.
    checkpoints: BTreeMap<usize, Checkpoint<'e>>,
    /// Set by [`drain`](BatchScheduler::drain): admission stops pumping and
    /// the machine winds down to idle.
    draining: bool,
    /// Executor-protocol traffic counters (see [`ParallelMetrics`]).
    parallel: ParallelMetrics,
    /// Sheds since the last [`take_shed_events`](BatchScheduler::take_shed_events),
    /// in the order they happened — the streaming-path view of
    /// [`ShedReason`], bounded by the number of submitted requests (a
    /// request sheds at most once).
    shed_events: Vec<(usize, ShedReason)>,
}

impl<'e> BatchScheduler<'e> {
    /// A scheduler with unbounded capacity and FCFS admission: every
    /// submitted request is promoted immediately, exactly reproducing the
    /// pre-arbitration scheduler.
    pub fn new(engine: &'e KelleEngine) -> Self {
        BatchScheduler::with_config(engine, SchedulerConfig::default())
    }

    /// A scheduler arbitrating the configured shared capacity.  A
    /// hand-assembled zero capacity is clamped to one byte, like in
    /// [`SchedulerConfig::with_kv_capacity_bytes`].
    pub fn with_config(engine: &'e KelleEngine, config: SchedulerConfig) -> Self {
        // An unbounded scheduler still runs the ledger (at u64::MAX capacity)
        // so high-water accounting works identically in both modes.  Under
        // tiering the ledger spans the whole hierarchy — eDRAM scarcity is
        // the tier manager's job, so per-request grants and spill stay
        // identical to an unlimited run and only migration costs differ.
        let ledger = match (config.kv_capacity_bytes, &config.tiering) {
            (Some(bytes), _) => CapacityLedger::new(bytes.max(1)),
            (None, Some(tiering)) => CapacityLedger::for_tier_budgets(&tiering.budgets),
            (None, None) => CapacityLedger::new(u64::MAX),
        };
        BatchScheduler {
            engine,
            config,
            ledger,
            tier: config.tiering.map(TierManager::new),
            states: Vec::new(),
            timings: Vec::new(),
            waiting: VecDeque::new(),
            scheduled: BinaryHeap::new(),
            stats: EngineStats::default(),
            tick: 0,
            spill_bytes: 0,
            prefix: PrefixBatchMetrics::default(),
            chaos: config
                .chaos
                .filter(ChaosConfig::enabled)
                .map(ChaosPlan::new),
            chaos_metrics: ChaosMetrics::default(),
            checkpoints: BTreeMap::new(),
            draining: false,
            parallel: ParallelMetrics::default(),
            shed_events: Vec::new(),
        }
    }

    /// The admission configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The capacity ledger (live bytes, high-water mark, oversubscription).
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// The tier placement manager, when tiering is enabled.
    pub fn tier(&self) -> Option<&TierManager> {
        self.tier.as_ref()
    }

    /// Fault-injection and recovery counters accumulated so far.
    pub fn chaos_metrics(&self) -> &ChaosMetrics {
        &self.chaos_metrics
    }

    /// Whether [`drain`](BatchScheduler::drain) has stopped admission.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Executor-protocol traffic counters accumulated so far (`ticks` is
    /// only stamped on the final [`BatchOutcome`]).
    pub fn parallel_metrics(&self) -> &ParallelMetrics {
        &self.parallel
    }

    /// Drains the sheds recorded since the last call, in the order they
    /// happened — the streaming-path complement of the final outcome's
    /// [`ShedReason`]s.
    /// [`try_run_to_completion_events_with`](BatchScheduler::try_run_to_completion_events_with)
    /// and the `kelle::front` streams are built on this.
    pub fn take_shed_events(&mut self) -> Vec<(usize, ShedReason)> {
        std::mem::take(&mut self.shed_events)
    }

    /// Pauses or resumes decode for an active request (stream backpressure:
    /// the `kelle::front` pauses a session whose consumer stopped polling).
    /// A paused slot is skipped by decode fan-out — its session stays
    /// wherever it is, parked or resident — and consumes no queue traffic
    /// until resumed.  Returns `false` when the request is not active.
    /// Pausing never changes a token stream, only when it is produced.
    pub(crate) fn set_paused(&mut self, index: usize, paused: bool) -> bool {
        match self.states.get_mut(index) {
            Some(RequestState::Active(slot)) => {
                slot.paused = paused;
                true
            }
            _ => false,
        }
    }

    /// Full-scale KV footprint of `tokens` retained tokens — the unit of
    /// account of the capacity ledger, identical to what the hardware step
    /// simulation charges per token (capped at the hardware budget `N'`).
    pub fn kv_footprint_bytes(&self, tokens: usize) -> u64 {
        self.engine.kv_footprint_bytes(tokens)
    }

    /// Enqueues a request into the waiting queue and immediately pumps
    /// admission (so with room available — always, when unbounded — the
    /// request is pre-filled right away).  Returns the request's index, which
    /// later [`StepEvent`]s, timings and the final outcome vector refer to.
    pub fn submit(&mut self, request: ServeRequest) -> usize {
        self.submit_with(request, &mut InlineExecutor)
    }

    /// [`submit`](BatchScheduler::submit) running admission prefills through
    /// `executor` (e.g. a [`WorkerPool`](crate::parallel::WorkerPool)) — the
    /// threaded front-end's submission path.  Admission decisions, ledger
    /// reservations and prefix-store planning stay on the calling thread in
    /// admission order; only the prefill compute fans out, so the resulting
    /// state is bit-identical to [`submit`](BatchScheduler::submit).
    ///
    /// A request whose [`arrival_tick`](ServeRequest::arrival_tick) lies in
    /// the future is *scheduled* instead of queued: it stays invisible to
    /// admission until the tick clock reaches its arrival, at which point it
    /// joins the waiting queue exactly as if it had been submitted then
    /// (`submitted_tick` is its arrival, so queue-time and TTFT metrics
    /// measure from arrival).  This is how a whole workload trace is loaded
    /// up front and replayed deterministically.
    pub fn submit_with(
        &mut self,
        request: ServeRequest,
        executor: &mut dyn StepExecutor<'e>,
    ) -> usize {
        let index = self.states.len();
        let arrival = request.arrival_tick();
        let future = arrival > self.tick;
        self.states.push(RequestState::Waiting(request));
        self.timings.push(RequestTiming {
            submitted_tick: if future { arrival } else { self.tick },
            admitted_tick: 0,
            finished_tick: 0,
            first_token_tick: None,
            queue_ticks: 0,
            kv_bytes: 0,
            peak_concurrent_bytes: 0,
            granted_bytes: None,
            spill_bytes: 0,
        });
        if future {
            self.scheduled.push(Reverse((arrival, index)));
        } else {
            self.waiting.push_back(index);
            self.pump_admission(executor);
        }
        index
    }

    /// Alias of [`submit`](BatchScheduler::submit), kept for source
    /// compatibility with the pre-admission-pipeline scheduler.
    pub fn admit(&mut self, request: ServeRequest) -> usize {
        self.submit(request)
    }

    /// Number of requests currently decoding.
    pub fn active(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, RequestState::Active(_)))
            .count()
    }

    /// Number of requests still in the waiting queue.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Whether every submitted request has finished.  A request scheduled
    /// for a future arrival tick keeps the machine busy: stepping advances
    /// the clock through the idle gap until it arrives.
    pub fn is_idle(&self) -> bool {
        self.active() == 0 && self.waiting.is_empty() && self.scheduled.is_empty()
    }

    /// Number of requests scheduled for a future arrival tick.
    pub fn scheduled(&self) -> usize {
        self.scheduled.len()
    }

    /// Moves every scheduled request whose arrival tick has been reached
    /// into the waiting queue, in `(arrival, index)` order — the start-of-
    /// tick half of arrival-driven admission.  The end-of-tick admission
    /// pump promotes them, so a request arriving at tick `T` is admitted at
    /// `T` and decodes from `T + 1`, exactly like an eager submission at
    /// `T`.
    fn release_arrivals(&mut self) {
        while let Some(&Reverse((arrival, index))) = self.scheduled.peek() {
            if arrival > self.tick {
                break;
            }
            self.scheduled.pop();
            // Cancellation may have finalized the request while it was
            // still scheduled; only genuinely waiting ones join the queue.
            if matches!(self.states[index], RequestState::Waiting(_)) {
                self.waiting.push_back(index);
            }
        }
    }

    /// Prefill KV footprint of a waiting request, split into the bytes the
    /// request will hold privately and the shared-prefix attachment it will
    /// make.  A prefix hit's matched tokens are charged through the ledger's
    /// shared pool — once per published prefix, however many requests attach
    /// — so admission sees the *true* device footprint.  (The full-scale
    /// footprint caps at the hardware budget `N'`; for prompts beyond it the
    /// shared/private split is proportional on capped bytes, a documented
    /// approximation.)
    fn prefill_footprint(&self, index: usize) -> AdmissionFootprint {
        let request = match &self.states[index] {
            RequestState::Waiting(request) => request,
            _ => unreachable!("only waiting requests are sized for admission"),
        };
        let total = self.kv_footprint_bytes(request.prompt().len());
        let key = self.engine.prefix_key_for(request);
        match self.engine.prefix_probe(request.prompt(), &key) {
            Some((tag, matched)) if matched > 0 => {
                let shared_bytes = self.kv_footprint_bytes(matched).min(total);
                AdmissionFootprint {
                    private_bytes: total - shared_bytes,
                    shared: Some((tag, shared_bytes)),
                }
            }
            _ => AdmissionFootprint {
                private_bytes: total,
                shared: None,
            },
        }
    }

    /// Bytes a waiting request would newly charge against capacity right
    /// now: its private footprint, plus the shared prefix *only if no other
    /// session charged it yet*.
    fn admission_charge(&self, footprint: &AdmissionFootprint) -> u64 {
        let shared_charge = match footprint.shared {
            Some((tag, bytes)) if !self.ledger.has_shared(tag) => bytes,
            _ => 0,
        };
        footprint.private_bytes + shared_charge
    }

    /// Whether a new charge fits right now: the ledger must host it, and —
    /// under tiering — so must the eDRAM tier, since admission plans against
    /// the on-chip budget only (demoted bytes don't count against it).
    fn admission_fits(&self, charge: u64) -> bool {
        self.ledger.can_fit(charge)
            && self
                .tier
                .as_ref()
                .is_none_or(|tier| tier.edram_fits(charge))
    }

    /// Promotes waiting requests into decode slots while the ledger can host
    /// their prefill footprint, in the order the admission policy dictates.
    /// When nothing is active and nothing fits, the next candidate is
    /// force-admitted so a request larger than the whole capacity still makes
    /// progress instead of deadlocking the queue.
    ///
    /// Admission is a two-phase pipeline so prefill compute can fan out to
    /// an executor's workers without changing any observable state:
    ///
    /// 1. **Commit (coordinator, admission order)** — candidate selection,
    ///    ledger reservation, shared-pool attachment and the session's
    ///    prefix-store *plan* ([`Session::plan_prefill`]) all happen here,
    ///    in exactly the sequence single-threaded serving performs them.
    /// 2. **Execute (any worker)** — the planned prefills run concurrently;
    ///    `Cold`/`Hit` plans never touch shared state.  A `Publish` plan
    ///    writes the store when it completes, so the pump flushes (barriers
    ///    on) it immediately: the next candidate's plan — which in
    ///    sequential serving runs after the publication — still observes it.
    ///
    /// Every admission pumped in one call is flushed before it returns, so
    /// the `Admitted` state is never observable between public calls.
    fn pump_admission(&mut self, executor: &mut dyn StepExecutor<'e>) {
        if self.draining {
            // A draining scheduler stops admitting; whatever is active
            // finishes, everything else stays queued (or was already shed by
            // the drain entry point).
            return;
        }
        let engine = self.engine;
        let mut pending: Vec<SessionTask<'e>> = Vec::new();
        loop {
            let candidate = match self.config.admission {
                AdmissionPolicy::Fcfs => self.waiting.front().map(|&index| (0, index)),
                AdmissionPolicy::ShortestPromptFirst => self
                    .waiting
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &index)| match &self.states[index] {
                        RequestState::Waiting(request) => (request.prompt().len(), index),
                        _ => unreachable!("waiting queue holds only waiting requests"),
                    })
                    .map(|(pos, &index)| (pos, index)),
                AdmissionPolicy::CapacityFit => self
                    .waiting
                    .iter()
                    .enumerate()
                    .find(|&(_, &index)| {
                        let footprint = self.prefill_footprint(index);
                        self.admission_fits(self.admission_charge(&footprint))
                    })
                    .or(self.waiting.front().map(|front| (0, front)))
                    .map(|(pos, &index)| (pos, index)),
            };
            let Some((queue_pos, index)) = candidate else {
                break;
            };
            let footprint = self.prefill_footprint(index);
            let charge = self.admission_charge(&footprint);
            let fits = self.admission_fits(charge);
            if fits
                && (self.active() > 0 || !pending.is_empty())
                && self.chaos.as_mut().is_some_and(ChaosPlan::ledger_blip)
            {
                // Transient reservation failure: the candidate stays queued
                // and retries on a later pump.  Blips never fire on an empty
                // machine (mirroring force-admission's forward-progress
                // guarantee), so a blipped request is only ever delayed —
                // its stream, faults and hardware report stay bit-identical.
                self.chaos_metrics.ledger_blips += 1;
                break;
            }
            let lease = if fits {
                self.ledger
                    .reserve(footprint.private_bytes)
                    .expect("admission_fits covered the private bytes")
            } else if self.active() == 0 && pending.is_empty() {
                // Forward-progress guarantee: an empty machine admits the
                // candidate even if it oversubscribes on its own.  Under
                // tiering an oversized session lands in eDRAM anyway; the
                // rebalance demotes it and promote-before-tick swaps it
                // back up each step, modelling the migration cost of
                // running beyond the on-chip memory.
                self.ledger.force_reserve(footprint.private_bytes)
            } else {
                break;
            };
            if let Some(tier) = self.tier.as_mut() {
                tier.place_session(index, footprint.private_bytes, self.tick);
            }
            if let Some((tag, bytes)) = footprint.shared {
                let charged = self.ledger.attach_shared(tag, bytes);
                if charged {
                    self.prefix.shared_bytes += bytes;
                } else {
                    self.prefix.deduplicated_bytes += bytes;
                }
                if let Some(tier) = self.tier.as_mut() {
                    if charged {
                        // A new shared-pool residency period: the segment
                        // materialises in eDRAM alongside its first session.
                        tier.place_segment(tag, bytes, self.tick);
                    } else {
                        // Dedup attach: the segment is replayed into the new
                        // session, promoting it back on chip if a rebalance
                        // had demoted it.
                        tier.touch_segment(
                            tag,
                            &engine.platform().memory,
                            self.tick,
                            self.chaos.as_mut().map(|p| p as &mut dyn MigrationFaults),
                        );
                    }
                }
            }
            self.waiting.remove(queue_pos);
            let publishes = self.commit_admission(index, lease, footprint.shared, &mut pending);
            if publishes {
                // The prefill will publish a prefix boundary; later
                // candidates' plans must observe the publication, exactly as
                // they would after a sequential activation.  Flush before
                // planning anything else.
                self.flush_admissions(executor, &mut pending);
            }
        }
        self.flush_admissions(executor, &mut pending);
    }

    /// Commits the admission of a waiting request: opens the session, plans
    /// its first prefill against the prefix store (coordinator-side, in
    /// admission order) and queues the compute as an executor task.  Returns
    /// whether the planned prefill will publish a prefix boundary.
    fn commit_admission(
        &mut self,
        index: usize,
        lease: LeaseId,
        shared: Option<(u64, u64)>,
        pending: &mut Vec<SessionTask<'e>>,
    ) -> bool {
        let request = match std::mem::replace(&mut self.states[index], RequestState::Taken) {
            RequestState::Waiting(request) => request,
            _ => unreachable!("only waiting requests are admitted"),
        };
        let mut session = self.engine.open_session_for(&request);
        let plan = session.plan_prefill(request.prompt());
        let publishes = plan.publishes();
        self.timings[index].admitted_tick = self.tick;
        self.timings[index].queue_ticks = self.tick - self.timings[index].submitted_tick;
        pending.push(SessionTask::prefill(
            index,
            session,
            request.prompt().to_vec(),
            plan,
        ));
        self.states[index] = RequestState::Admitted(Box::new(Admitted {
            request,
            lease,
            shared,
            live_at_admission: self.ledger.live_bytes(),
        }));
        publishes
    }

    /// Executes all pending admission prefills and activates their slots in
    /// submission order.
    fn flush_admissions(
        &mut self,
        executor: &mut dyn StepExecutor<'e>,
        pending: &mut Vec<SessionTask<'e>>,
    ) {
        if pending.is_empty() {
            return;
        }
        let mut outputs = executor.execute(std::mem::take(pending));
        outputs.sort_by_key(TaskOutput::index);
        for output in outputs {
            self.activate(output);
        }
    }

    /// Installs an admitted request's pre-filled session into its decode
    /// slot.
    fn activate(&mut self, output: TaskOutput<'e>) {
        let worker = output.worker();
        let (index, session, prefilled) = output.into_prefill();
        let admitted = match std::mem::replace(&mut self.states[index], RequestState::Taken) {
            RequestState::Admitted(admitted) => admitted,
            _ => unreachable!("only admitted requests are activated"),
        };
        let Admitted {
            request,
            lease,
            shared,
            live_at_admission,
        } = *admitted;
        if session.prefix_hit_tokens() > 0 {
            self.prefix.hit_requests += 1;
            self.prefix.hit_tokens += session.prefix_hit_tokens() as u64;
        }
        if worker.is_some() {
            // The session crossed to a worker for its prefill and back.
            self.parallel.queue_crossings += 2;
        }
        let remaining = request.decode_len();
        let position = session.position();
        self.states[index] = RequestState::Active(Box::new(Slot {
            request,
            session: Some(session),
            prefilled,
            generated: Vec::with_capacity(remaining),
            trace: DecodeTrace::default(),
            remaining,
            lease,
            peak_concurrent_bytes: live_at_admission,
            shared,
            position,
            paused: false,
            parked: false,
            last_worker: worker,
        }));
    }

    /// Runs one decode step for every active request, in submission order.
    /// Returns one [`StepEvent`] per request that made progress (every active
    /// request does — the fairness property the tests assert).  Completed
    /// requests release their capacity and the waiting queue is back-filled
    /// before the call returns.
    pub fn step(&mut self) -> Vec<StepEvent> {
        self.step_with(&mut InlineExecutor)
    }

    /// [`step`](BatchScheduler::step) with the per-session decode compute
    /// fanned out through `executor` — the tick protocol of the threaded
    /// front-end (see [`crate::parallel`]):
    ///
    /// 1. **Fan out** — every active session moves into a decode task;
    ///    sessions are mutually independent, so workers may execute them in
    ///    any order and produce bit-identical results.
    /// 2. **Commit (coordinator, submission order)** — returned steps are
    ///    applied in request-index order: token/trace bookkeeping, one
    ///    batched ledger commit
    ///    ([`CapacityLedger::commit_growth`]), the
    ///    per-request concurrency peaks, completions (hardware simulation,
    ///    engine statistics, lease release) and finally admission back-fill.
    ///
    /// Every observable — events, metrics, f64 accumulation order — matches
    /// [`step`](BatchScheduler::step) exactly; only wall-clock time differs.
    pub fn step_with(&mut self, executor: &mut dyn StepExecutor<'e>) -> Vec<StepEvent> {
        match self.try_step_with(executor) {
            Ok(events) => events,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`step`](BatchScheduler::step): one inline-executed tick,
    /// with a retry-budget exhaustion surfacing as
    /// [`ServeError::WorkerLost`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] when an injected worker panic
    /// exhausts its replay budget; the scheduler stays consistent and can
    /// keep stepping or drain.
    pub fn try_step(&mut self) -> Result<Vec<StepEvent>, ServeError> {
        self.try_step_with(&mut InlineExecutor)
    }

    /// Fallible [`step_with`](BatchScheduler::step_with): a worker loss that
    /// exhausts the chaos retry budget surfaces as
    /// [`ServeError::WorkerLost`] instead of a panic.  Even on `Err` the
    /// scheduler stays consistent — the lost request is finalized with its
    /// partial output ([`ShedReason::WorkerLost`]), every lease and tier
    /// placement is released, and stepping/draining can continue.
    ///
    /// With chaos enabled the tick additionally:
    ///
    /// * arms sessions the [`ChaosPlan`] marks for a worker panic this tick,
    /// * replays failed sessions from their last committed-boundary
    ///   [`Checkpoint`] (bounded by
    ///   [`max_retries`](ChaosConfig::max_retries)) — the replay recomputes
    ///   the identical decode step, so surviving streams stay bit-identical
    ///   to a chaos-free run,
    /// * refreshes each surviving session's checkpoint at the new committed
    ///   boundary.
    pub fn try_step_with(
        &mut self,
        executor: &mut dyn StepExecutor<'e>,
    ) -> Result<Vec<StepEvent>, ServeError> {
        self.tick += 1;
        self.release_arrivals();
        self.shed_expired(executor);
        let memory = &self.engine.platform().memory;
        // Sticky execution needs sessions to stay parked on their shards;
        // chaos needs them on the coordinator between attempts (checkpoint
        // capture and replay re-dispatch).  Chaos wins: with injection
        // active the tick falls back to the classic move protocol — a
        // sticky executor still pins every moved task to its owning shard.
        let sticky = executor.is_sticky() && self.chaos.is_none();
        // Per-tick buffers are O(active requests) and amortized into noise
        // by the decode compute they carry; ownership must cross the
        // executor boundary, so they cannot be scheduler-resident.
        let mut tasks = Vec::with_capacity(self.states.len());
        let mut step_indices = Vec::new();
        for index in 0..self.states.len() {
            if let RequestState::Active(slot) = &mut self.states[index] {
                if slot.paused {
                    // Backpressured: the session sits this tick out,
                    // wherever it lives (resident or parked) — zero queue
                    // traffic either way.
                    continue;
                }
                if let Some(tier) = self.tier.as_mut() {
                    // Promote-before-tick: a session demoted by an earlier
                    // rebalance decodes out of eDRAM, so it migrates back up
                    // (cost charged) before this step runs.
                    tier.promote_session(
                        index,
                        memory,
                        self.tick,
                        self.chaos.as_mut().map(|p| p as &mut dyn MigrationFaults),
                    );
                }
                if sticky {
                    if !slot.parked {
                        // First sticky tick since activation (or since a
                        // recall brought the session back): one crossing to
                        // its shard, where it stays.
                        let session = slot
                            .session
                            .take()
                            .expect("session is resident between steps");
                        slot.parked = true;
                        executor.park(index, session);
                        self.parallel.queue_crossings += 1;
                    }
                    step_indices.push(index);
                    continue;
                }
                if self.chaos.is_some() && !self.checkpoints.contains_key(&index) {
                    // First fan-out since activation: checkpoint the
                    // committed (post-prefill) state before the session
                    // leaves the coordinator.
                    let session = slot
                        .session
                        .as_ref()
                        .expect("session is resident between steps");
                    self.checkpoints
                        .insert(index, Checkpoint::capture(session, self.tick - 1));
                    self.chaos_metrics.checkpoints_taken += 1;
                }
                let session = slot
                    .session
                    .take()
                    .expect("session is resident between steps");
                let mut task = SessionTask::decode(index, session);
                if self
                    .chaos
                    .as_ref()
                    .is_some_and(|plan| plan.worker_panic(self.tick, index, 0))
                {
                    task.arm_sabotage();
                    self.chaos_metrics.injected_panics += 1;
                }
                tasks.push(task);
            }
        }
        // Fan out, collecting this tick's commits from whichever protocol is
        // active.  Both paths produce the same `PendingCommit` shape, so the
        // commit loop below is shared — and since commits are sorted by
        // request index before they land, the committed bits cannot depend
        // on which protocol (or worker count) produced them.
        let max_retries = self
            .chaos
            .as_ref()
            .map_or(0, |plan| plan.config().max_retries);
        let mut attempt = 0u32;
        let mut pending: Vec<PendingCommit>;
        let lost;
        if sticky {
            let outcome = executor.step_parked(&step_indices);
            lost = outcome.failures;
            pending = outcome
                .steps
                .into_iter()
                .map(|step| PendingCommit {
                    index: step.index,
                    step: step.step,
                    tokens_before: step.tokens_before,
                    position: step.position,
                    worker: Some(step.worker),
                })
                .collect();
        } else {
            let mut result = executor.try_execute_axis(tasks, self.config.parallel_axis);

            // Replay lost sessions from their checkpoints, bounded by the
            // plan's retry budget.  A replay re-forks the last committed
            // state and recomputes the very same decode step, so the
            // committed bits are those the lost execution would have
            // produced.
            while !result.failures.is_empty() && self.chaos.is_some() && attempt < max_retries {
                attempt += 1;
                // One modelled backoff tick per replay round; the functional
                // tick counter must stay chaos-invariant, so this is metrics
                // only.
                self.chaos_metrics.backoff_ticks += 1;
                let failures = std::mem::take(&mut result.failures);
                let mut retry_tasks = Vec::with_capacity(failures.len());
                for failure in failures {
                    let index = failure.index();
                    let checkpoint = self
                        .checkpoints
                        .get(&index)
                        .expect("chaos keeps a checkpoint for every active session");
                    let session = checkpoint.restore();
                    self.chaos_metrics.restored_sessions += 1;
                    self.chaos_metrics.replayed_steps += 1;
                    let mut task = SessionTask::decode(index, session);
                    if self
                        .chaos
                        .as_ref()
                        .is_some_and(|plan| plan.worker_panic(self.tick, index, attempt))
                    {
                        task.arm_sabotage();
                        self.chaos_metrics.injected_panics += 1;
                    }
                    retry_tasks.push(task);
                }
                let retry = executor.try_execute_axis(retry_tasks, self.config.parallel_axis);
                result.outputs.extend(retry.outputs);
                result.failures = retry.failures;
            }
            lost = std::mem::take(&mut result.failures);
            pending = Vec::with_capacity(result.outputs.len());
            for output in result.outputs {
                let worker = output.worker();
                let (index, session, step, tokens_before) = output.into_decode();
                let position = session.position();
                let RequestState::Active(slot) = &mut self.states[index] else {
                    unreachable!("decode outputs come from active slots");
                };
                slot.session = Some(session);
                slot.parked = false;
                if worker.is_some() {
                    // The whole session crossed to a worker and back.
                    self.parallel.queue_crossings += 2;
                }
                pending.push(PendingCommit {
                    index,
                    step,
                    tokens_before,
                    position,
                    worker,
                });
            }
        }
        // Commit in request index (= submission) order: the ledger, trace,
        // and tier observations land identically for every executor.
        pending.sort_by_key(|commit| commit.index);

        let mut events = Vec::with_capacity(pending.len());
        let mut completed = Vec::new();
        let mut growths = Vec::with_capacity(pending.len());
        for commit in pending {
            let PendingCommit {
                index,
                step,
                tokens_before,
                position,
                worker,
            } = commit;
            // Grow the lease by the decoded token's full-scale KV bytes
            // (zero once the hardware budget N' saturates).
            let growth = self
                .engine
                .kv_footprint_bytes(position)
                .saturating_sub(self.engine.kv_footprint_bytes(tokens_before));
            let RequestState::Active(slot) = &mut self.states[index] else {
                unreachable!("decode steps come from active slots");
            };
            slot.position = position;
            slot.generated.push(step.token);
            if slot.generated.len() == 1 {
                self.timings[index].first_token_tick = Some(self.tick);
            }
            slot.trace.record(&step.record);
            slot.remaining -= 1;
            growths.push((slot.lease, growth));
            if let (Some(previous), Some(current)) = (slot.last_worker, worker) {
                if previous != current {
                    self.parallel.sessions_migrated += 1;
                }
            }
            slot.last_worker = worker;
            if let Some(tier) = self.tier.as_mut() {
                // Decode growth lands on the session's tier (eDRAM during a
                // tick, thanks to promote-before-tick) and counts as a
                // touch.
                tier.note_growth(index, growth, self.tick);
            }
            let finished = slot.remaining == 0;
            if self.chaos.is_some() && !finished {
                // Refresh the checkpoint at the new committed boundary so a
                // panic on a later tick replays one step, not the whole
                // request.  Chaos forces the classic protocol, so the
                // session is coordinator-resident here.
                let session = slot
                    .session
                    .as_ref()
                    .expect("session was just committed back");
                self.checkpoints
                    .insert(index, Checkpoint::capture(session, self.tick));
                self.chaos_metrics.checkpoints_taken += 1;
            }
            events.push(StepEvent {
                request: index,
                token: step.token,
                finished,
            });
            if finished {
                completed.push(index);
            }
        }
        // The whole tick's growth lands on the ledger as one commit
        // (equivalent to per-slot grows — growth is monotone within a tick).
        self.ledger.commit_growth(&growths);
        // All of this step's growth is on the ledger: record the concurrency
        // every active request experienced this tick.
        let live = self.ledger.live_bytes();
        for state in &mut self.states {
            if let RequestState::Active(slot) = state {
                slot.peak_concurrent_bytes = slot.peak_concurrent_bytes.max(live);
            }
        }
        for index in completed {
            self.complete(index, executor);
        }
        // Requests whose retry budget is exhausted: restore the last
        // committed state (so the shed finalizes a real partial turn), then
        // shed them.  The first loss is reported to the caller; the
        // scheduler itself stays consistent either way.
        let worker_lost = lost.first().map(|failure| ServeError::WorkerLost {
            request: failure.index(),
            attempts: attempt + 1,
            message: failure.message().to_string(),
        });
        for failure in lost {
            let index = failure.index();
            if let Some(checkpoint) = self.checkpoints.get(&index) {
                let session = checkpoint.restore();
                self.chaos_metrics.restored_sessions += 1;
                if let RequestState::Active(slot) = &mut self.states[index] {
                    slot.session = Some(session);
                }
            }
            self.chaos_metrics.lost_requests += 1;
            self.shed_active(index, ShedReason::WorkerLost, executor);
        }
        if let Some(tier) = self.tier.as_mut() {
            // End-of-tick rebalance, after completions freed their bytes:
            // idle and over-budget KV demotes toward DRAM/NVMe so the
            // admission pump below sees the settled eDRAM occupancy.
            tier.rebalance(
                self.tick,
                memory,
                self.chaos.as_mut().map(|p| p as &mut dyn MigrationFaults),
            );
        }
        // Freed capacity back-fills the waiting queue; the newly admitted
        // requests are pre-filled now and decode from the next tick.
        self.pump_admission(executor);
        match worker_lost {
            Some(error) => Err(error),
            None => Ok(events),
        }
    }

    /// Brings a parked session back to the coordinator (one queue crossing)
    /// so it can be finalized.  A no-op for resident sessions; if the shard
    /// lost the session (a decode panic dropped it), the slot simply stays
    /// session-less and finalization degrades to a synthetic outcome.
    fn ensure_resident(&mut self, index: usize, executor: &mut dyn StepExecutor<'e>) {
        let parked = matches!(&self.states[index], RequestState::Active(slot) if slot.parked);
        if !parked {
            return;
        }
        let session = executor.recall(index);
        if let RequestState::Active(slot) = &mut self.states[index] {
            slot.parked = false;
            if let Some(session) = session {
                slot.session = Some(session);
                self.parallel.queue_crossings += 1;
            }
        }
    }

    /// Finalises a request: derives its capacity grant from the contention it
    /// experienced, simulates its hardware cost, and releases its lease.
    fn complete(&mut self, index: usize, executor: &mut dyn StepExecutor<'e>) {
        self.ensure_resident(index, executor);
        let state = std::mem::replace(&mut self.states[index], RequestState::Taken);
        let RequestState::Active(mut slot) = state else {
            unreachable!("only active requests complete");
        };
        let kv_bytes = self.ledger.lease_bytes(slot.lease);
        let peak = slot.peak_concurrent_bytes;
        let capacity = self.ledger.capacity_bytes();
        // Uncontended (peak within the arbitrated capacity), the request is
        // costed like a single tenant: the whole KV memory (`None`).  Under
        // contention it gets its proportional slice `my_bytes / peak` of the
        // on-chip KV memory (further bounded by the arbitrated capacity, so
        // a budget below the physical memory models a smaller device), and
        // the bytes that thereby lose on-chip residency are the spill the
        // outcome reports — they are charged at DRAM access cost.
        //
        // A shared prefix attachment is resident once on behalf of *all* its
        // sessions, so it rides on top of the proportional private grant
        // (clamped to the on-chip size); the proportional split itself runs
        // over private bytes only, keeping Σ private grants ≤ on-chip.
        let physical = self.engine.platform().memory.kv_memory.capacity_bytes;
        let shared_bytes = slot.shared.map_or(0, |(_, bytes)| bytes);
        let (granted, spill) = if peak > capacity {
            let onchip = capacity.min(physical);
            let granted = ((onchip as u128 * kv_bytes as u128) / peak as u128) as u64;
            let uncontended_resident = kv_bytes.min(physical);
            let contended_resident = kv_bytes.min(granted);
            (
                Some((granted + shared_bytes).min(onchip)),
                uncontended_resident - contended_resident,
            )
        } else {
            (None, 0)
        };
        let timing = &mut self.timings[index];
        timing.finished_tick = self.tick;
        timing.kv_bytes = kv_bytes;
        timing.peak_concurrent_bytes = peak;
        timing.granted_bytes = granted;
        timing.spill_bytes = spill;
        self.spill_bytes += spill;

        let generated = std::mem::take(&mut slot.generated);
        let trace = std::mem::take(&mut slot.trace);
        let turn = slot
            .session
            .as_mut()
            .expect("session is resident between steps")
            .finish_turn(
                generated,
                trace,
                slot.prefilled,
                slot.request.decode_len(),
                slot.request.label(),
                granted,
            );
        self.stats = self.stats.merged(EngineStats::from_turn(&turn));
        self.ledger.release(slot.lease);
        if let Some(tier) = self.tier.as_mut() {
            tier.remove_session(index);
        }
        if let Some((tag, _)) = slot.shared {
            let last_detach = self.ledger.detach_shared(tag);
            if last_detach {
                if let Some(tier) = self.tier.as_mut() {
                    tier.remove_segment(tag);
                }
            }
        }
        self.checkpoints.remove(&index);
        self.states[index] = RequestState::Finished(turn.into());
    }

    /// Sheds requests whose deadline or queue-wait budget expired, at the
    /// start of the tick (before any decode compute is spent on them).
    fn shed_expired(&mut self, executor: &mut dyn StepExecutor<'e>) {
        for index in 0..self.states.len() {
            let elapsed = self.tick.saturating_sub(self.timings[index].submitted_tick);
            match &self.states[index] {
                RequestState::Waiting(request)
                    if request.queue_timeout_ticks().is_some_and(|t| elapsed > t) =>
                {
                    self.chaos_metrics.shed_requests += 1;
                    self.shed_waiting(index, ShedReason::QueueTimeout);
                }
                RequestState::Active(slot)
                    if slot.request.deadline_ticks().is_some_and(|d| elapsed > d) =>
                {
                    self.chaos_metrics.shed_requests += 1;
                    self.shed_active(index, ShedReason::DeadlineExceeded, executor);
                }
                _ => {}
            }
        }
    }

    /// A synthetic outcome for a request shed with `generated` tokens that
    /// never went through the hardware simulation (nothing was decoded, or
    /// the session was lost with no checkpoint to finalize from).
    fn shed_outcome(generated: Vec<usize>, trace: DecodeTrace, reason: ShedReason) -> ServeOutcome {
        ServeOutcome {
            generated,
            cache: CacheStats::default(),
            faults: FaultStats::default(),
            trace,
            hardware: PlatformReport {
                platform: String::new(),
                workload: "shed",
                prefill: PhaseMetrics::default(),
                decode: PhaseMetrics::default(),
            },
            prefilled_tokens: 0,
            prefix_hit_tokens: 0,
            shed: Some(reason),
        }
    }

    /// Removes a waiting request from the queue and finalizes it unserved.
    fn shed_waiting(&mut self, index: usize, reason: ShedReason) {
        if let Some(pos) = self.waiting.iter().position(|&i| i == index) {
            self.waiting.remove(pos);
        }
        let previous = std::mem::replace(&mut self.states[index], RequestState::Taken);
        assert!(
            matches!(previous, RequestState::Waiting(_)),
            "only waiting requests shed through shed_waiting"
        );
        let timing = &mut self.timings[index];
        timing.finished_tick = self.tick;
        // A drained future arrival can be shed before its arrival tick:
        // it never queued, so its queue time saturates to zero.
        timing.queue_ticks = self.tick.saturating_sub(timing.submitted_tick);
        self.shed_events.push((index, reason));
        self.states[index] = RequestState::Finished(Self::shed_outcome(
            Vec::new(),
            DecodeTrace::default(),
            reason,
        ));
    }

    /// Finalizes an active request early with whatever it generated so far,
    /// releasing its lease, tier placement and shared-prefix attachment.
    /// With a resident session and at least one token the partial turn is
    /// finalized for real (hardware simulation, engine statistics); a
    /// token-less or session-less shed produces a synthetic outcome.  A
    /// parked session is recalled from its shard first.
    fn shed_active(
        &mut self,
        index: usize,
        reason: ShedReason,
        executor: &mut dyn StepExecutor<'e>,
    ) {
        self.ensure_resident(index, executor);
        let state = std::mem::replace(&mut self.states[index], RequestState::Taken);
        let RequestState::Active(mut slot) = state else {
            unreachable!("only active requests shed through shed_active");
        };
        let kv_bytes = self.ledger.lease_bytes(slot.lease);
        let generated = std::mem::take(&mut slot.generated);
        let trace = std::mem::take(&mut slot.trace);
        let outcome = match slot.session.as_mut() {
            Some(session) if !generated.is_empty() => {
                let decode_len = generated.len();
                let turn = session.finish_turn(
                    generated,
                    trace,
                    slot.prefilled,
                    decode_len,
                    slot.request.label(),
                    None,
                );
                self.stats = self.stats.merged(EngineStats::from_turn(&turn));
                let mut outcome = ServeOutcome::from(turn);
                outcome.shed = Some(reason);
                outcome
            }
            _ => Self::shed_outcome(generated, trace, reason),
        };
        let timing = &mut self.timings[index];
        timing.finished_tick = self.tick;
        timing.kv_bytes = kv_bytes;
        timing.peak_concurrent_bytes = slot.peak_concurrent_bytes;
        self.ledger.release(slot.lease);
        if let Some(tier) = self.tier.as_mut() {
            tier.remove_session(index);
        }
        if let Some((tag, _)) = slot.shared {
            let last_detach = self.ledger.detach_shared(tag);
            if last_detach {
                if let Some(tier) = self.tier.as_mut() {
                    tier.remove_segment(tag);
                }
            }
        }
        self.checkpoints.remove(&index);
        self.shed_events.push((index, reason));
        self.states[index] = RequestState::Finished(outcome);
    }

    /// Cancels a request mid-stream.  A waiting request is finalized
    /// unserved; an active one keeps the tokens it generated so far (its
    /// outcome is marked [`ShedReason::Cancelled`]) and releases all
    /// capacity immediately.  Returns `false` when the index is unknown or
    /// the request already finished.
    ///
    /// A session parked on a sticky executor cannot be recalled through this
    /// entry point (there is no executor to ask); its partial output is kept
    /// but finalized synthetically.  Prefer
    /// [`cancel_with`](BatchScheduler::cancel_with) when stepping through a
    /// sticky executor.
    pub fn cancel(&mut self, request: usize) -> bool {
        self.cancel_with(request, &mut InlineExecutor)
    }

    /// [`cancel`](BatchScheduler::cancel), recalling a parked session from
    /// `executor` so the partial turn finalizes for real.
    pub fn cancel_with(&mut self, request: usize, executor: &mut dyn StepExecutor<'e>) -> bool {
        match self.states.get(request) {
            Some(RequestState::Waiting(_)) => {
                self.chaos_metrics.cancelled_requests += 1;
                self.shed_waiting(request, ShedReason::Cancelled);
                true
            }
            Some(RequestState::Active(_)) => {
                self.chaos_metrics.cancelled_requests += 1;
                self.shed_active(request, ShedReason::Cancelled, executor);
                true
            }
            _ => false,
        }
    }

    /// Gracefully drains the scheduler: admission stops, every waiting
    /// request is finalized unserved ([`ShedReason::Drained`]) and the
    /// active ones are stepped to completion.  On return the scheduler is
    /// idle and every lease, tier placement and shared-prefix reference has
    /// been released — [`finish`](BatchScheduler::finish) cannot fail.
    /// Draining is terminal: requests submitted afterwards queue forever.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        self.drain_with(&mut InlineExecutor)
    }

    /// [`drain`](BatchScheduler::drain) stepping through `executor`.  A
    /// [`ServeError::WorkerLost`] mid-drain sheds the lost request and
    /// surfaces the error; calling again resumes the wind-down.
    pub fn drain_with(&mut self, executor: &mut dyn StepExecutor<'e>) -> Result<(), ServeError> {
        self.begin_drain();
        while self.active() > 0 {
            self.try_step_with(executor)?;
        }
        Ok(())
    }

    /// The non-blocking half of [`drain`](BatchScheduler::drain): stops
    /// admission, sheds every waiting request as [`ShedReason::Drained`] and
    /// resumes any backpressure-paused slot so the wind-down cannot stall —
    /// but does **not** step the active sessions.  Keep calling
    /// [`try_step_with`](BatchScheduler::try_step_with) until
    /// [`is_idle`](BatchScheduler::is_idle); this is what the front-end's
    /// cooperative [`drain`](crate::front::ServingFront::drain) does.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        let waiting: Vec<usize> = self.waiting.iter().copied().collect();
        for index in waiting {
            self.chaos_metrics.drained_requests += 1;
            self.shed_waiting(index, ShedReason::Drained);
        }
        // Future arrivals never run on a draining scheduler: shed them now
        // (in arrival order) so the wind-down reaches idle.
        while let Some(Reverse((_, index))) = self.scheduled.pop() {
            if matches!(self.states[index], RequestState::Waiting(_)) {
                self.chaos_metrics.drained_requests += 1;
                self.shed_waiting(index, ShedReason::Drained);
            }
        }
        for state in &mut self.states {
            if let RequestState::Active(slot) = state {
                slot.paused = false;
            }
        }
    }

    /// Effective per-session `N'` shares of the engine's cache budget for the
    /// currently active sessions, derived from their live context lengths —
    /// the algorithmic view of the same contention the ledger arbitrates.
    /// Purely observational: shares are never applied to live caches (that
    /// would change token streams and break the equivalence guarantee).
    pub fn partitioned_budgets(&self, mode: PartitionMode) -> Vec<(usize, CacheBudget)> {
        let active: Vec<(usize, usize)> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(index, state)| match state {
                // The mirror, not the session: a sticky executor may be
                // holding the session itself parked on its shard.
                RequestState::Active(slot) => Some((index, slot.position)),
                _ => None,
            })
            .collect();
        let contexts: Vec<usize> = active.iter().map(|&(_, context)| context).collect();
        let partitioner = BudgetPartitioner::new(self.engine.config().budget, mode);
        active
            .iter()
            .map(|&(index, _)| index)
            .zip(partitioner.shares(&contexts))
            .collect()
    }

    /// Drives [`step`](BatchScheduler::step) until every submitted request
    /// has finished, then collects the outcome.  This is the panic-free
    /// driver behind the sequential [`KelleEngine::serve`] path.
    pub fn run_to_completion(self) -> BatchOutcome {
        self.run_to_completion_streaming(|_, _| {})
    }

    /// Like [`run_to_completion`](BatchScheduler::run_to_completion),
    /// invoking `on_token` with `(request_index, token)` as tokens are
    /// generated.
    pub fn run_to_completion_streaming(self, on_token: impl FnMut(usize, usize)) -> BatchOutcome {
        self.run_to_completion_streaming_with(&mut InlineExecutor, on_token)
    }

    /// Drives [`step_with`](BatchScheduler::step_with) until every submitted
    /// request has finished, streaming tokens from the coordinating thread
    /// in the same order single-threaded serving would deliver them.
    pub fn run_to_completion_streaming_with(
        mut self,
        executor: &mut dyn StepExecutor<'e>,
        mut on_token: impl FnMut(usize, usize),
    ) -> BatchOutcome {
        while !self.is_idle() {
            for event in self.step_with(executor) {
                on_token(event.request, event.token);
            }
        }
        self.finish()
            .expect("scheduler is idle, finish cannot fail")
    }

    /// Fallible
    /// [`run_to_completion_streaming_with`](BatchScheduler::run_to_completion_streaming_with):
    /// drives [`try_step_with`](BatchScheduler::try_step_with) until idle.
    /// An unrecoverable worker loss aborts the drive with
    /// [`ServeError::WorkerLost`]; the lost request was already finalized
    /// with its partial output, but the remaining in-flight work is dropped
    /// with the scheduler — callers that must not lose the batch should
    /// step/drain a scheduler they own instead.
    pub fn try_run_to_completion_streaming_with(
        mut self,
        executor: &mut dyn StepExecutor<'e>,
        mut on_token: impl FnMut(usize, usize),
    ) -> Result<BatchOutcome, ServeError> {
        while !self.is_idle() {
            for event in self.try_step_with(executor)? {
                on_token(event.request, event.token);
            }
        }
        Ok(self
            .finish()
            .expect("scheduler is idle, finish cannot fail"))
    }

    /// Like
    /// [`try_run_to_completion_streaming_with`](BatchScheduler::try_run_to_completion_streaming_with)
    /// but delivering the full [`ServeEvent`] stream: tokens as they commit
    /// **and** sheds (deadline, queue timeout, cancellation, drain, worker
    /// loss) as they happen, instead of only reporting sheds in the final
    /// outcome.  Within a tick tokens are delivered before that tick's
    /// sheds, both in request-index order.
    pub fn try_run_to_completion_events_with(
        mut self,
        executor: &mut dyn StepExecutor<'e>,
        mut on_event: impl FnMut(ServeEvent),
    ) -> Result<BatchOutcome, ServeError> {
        for (request, reason) in self.take_shed_events() {
            on_event(ServeEvent::Shed { request, reason });
        }
        while !self.is_idle() {
            let stepped = self.try_step_with(executor);
            // Sheds recorded this tick are delivered even when the tick
            // itself failed with a worker loss.
            let events = match &stepped {
                Ok(events) => events.as_slice(),
                Err(_) => &[],
            };
            for event in events {
                on_event(ServeEvent::Token {
                    request: event.request,
                    token: event.token,
                    finished: event.finished,
                });
            }
            for (request, reason) in self.take_shed_events() {
                on_event(ServeEvent::Shed { request, reason });
            }
            stepped?;
        }
        Ok(self
            .finish()
            .expect("scheduler is idle, finish cannot fail"))
    }

    /// Collects the per-request outcomes and the batch aggregate.
    ///
    /// Returns [`BatchIncomplete`] if any submitted request is still waiting
    /// or decoding; the error hands the scheduler back
    /// ([`BatchIncomplete::resume`]) so the batch can still be driven with
    /// [`step`](BatchScheduler::step) until
    /// [`is_idle`](BatchScheduler::is_idle) — or use
    /// [`run_to_completion`](BatchScheduler::run_to_completion) and never
    /// deal with the error at all.
    pub fn finish(self) -> Result<BatchOutcome, BatchIncomplete<'e>> {
        if !self.is_idle() {
            return Err(BatchIncomplete {
                active: self.active(),
                waiting: self.waiting.len(),
                scheduler: Box::new(self),
            });
        }
        let outcomes: Vec<ServeOutcome> = self
            .states
            .into_iter()
            .map(|state| match state {
                RequestState::Finished(outcome) => outcome,
                _ => unreachable!("idle scheduler holds only finished requests"),
            })
            .collect();
        let slo = Self::slo_report(self.config.slo, &self.timings, &outcomes, self.tick);
        let contention = ContentionMetrics {
            capacity_bytes: self.config.kv_capacity_bytes,
            peak_residency_bytes: self.ledger.high_water_bytes(),
            spill_bytes: self.spill_bytes,
            total_queue_ticks: self.timings.iter().map(|t| t.queue_ticks).sum(),
            max_queue_ticks: self
                .timings
                .iter()
                .map(|t| t.queue_ticks)
                .max()
                .unwrap_or(0),
            per_request: self.timings,
        };
        let mut parallel = self.parallel;
        parallel.ticks = self.tick;
        Ok(BatchOutcome {
            outcomes,
            stats: self.stats,
            contention,
            prefix: self.prefix,
            tiering: self
                .tier
                .as_ref()
                .map(TierManager::metrics)
                .unwrap_or_default(),
            chaos: self.chaos_metrics,
            parallel,
            slo,
        })
    }

    /// Derives the batch's [`SloReport`] from the per-request timings and
    /// outcomes.  Pure tick arithmetic: no wall-clock enters, so the report
    /// is bit-identical across executors and worker counts.
    fn slo_report(
        spec: SloSpec,
        timings: &[RequestTiming],
        outcomes: &[ServeOutcome],
        ticks: u64,
    ) -> SloReport {
        let mut ttfts = Vec::with_capacity(outcomes.len());
        let mut tpots = Vec::with_capacity(outcomes.len());
        let mut queues = Vec::with_capacity(outcomes.len());
        let mut report = SloReport {
            spec,
            requests: outcomes.len() as u64,
            ticks,
            ..SloReport::default()
        };
        for (timing, outcome) in timings.iter().zip(outcomes) {
            let tokens = outcome.generated.len() as u64;
            report.total_tokens += tokens;
            queues.push(timing.queue_ticks as f64);
            let ttft = timing
                .first_token_tick
                .map(|first| first - timing.submitted_tick);
            if let Some(ttft) = ttft {
                ttfts.push(ttft as f64);
            }
            if outcome.shed.is_some() {
                report.shed += 1;
                continue;
            }
            report.completed += 1;
            let tpot = match (timing.first_token_tick, tokens) {
                (Some(first), 2..) => {
                    Some((timing.finished_tick - first) as f64 / (tokens - 1) as f64)
                }
                _ => None,
            };
            if let Some(tpot) = tpot {
                tpots.push(tpot);
            }
            if ttft.is_some_and(|ttft| spec.met_by(ttft, tpot)) {
                report.goodput_requests += 1;
                report.goodput_tokens += tokens;
            }
        }
        report.ttft = LatencySummary::from_samples(ttfts);
        report.tpot = LatencySummary::from_samples(tpots);
        report.queue = LatencySummary::from_samples(queues);
        report
    }
}

impl std::fmt::Debug for BatchScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("submitted", &self.states.len())
            .field("waiting", &self.waiting.len())
            .field("active", &self.active())
            .field("live_bytes", &self.ledger.live_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> KelleEngine {
        KelleEngine::new(EngineConfig::default())
    }

    #[test]
    fn scheduler_round_robins_until_done() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3], 2));
        scheduler.submit(ServeRequest::new(vec![4, 5, 6], 4));
        assert_eq!(scheduler.active(), 2);
        assert_eq!(scheduler.waiting(), 0);

        // Both requests progress in the first two steps; only the longer one
        // afterwards.
        let s1 = scheduler.step();
        assert_eq!(s1.len(), 2);
        let s2 = scheduler.step();
        assert_eq!(s2.len(), 2);
        assert!(s2.iter().any(|e| e.request == 0 && e.finished));
        let s3 = scheduler.step();
        assert_eq!(s3.len(), 1);
        assert_eq!(s3[0].request, 1);
        scheduler.step();
        assert!(scheduler.is_idle());

        let outcome = scheduler.finish().expect("batch is idle");
        assert_eq!(outcome.outcomes.len(), 2);
        assert_eq!(outcome.outcomes[0].generated.len(), 2);
        assert_eq!(outcome.outcomes[1].generated.len(), 4);
        assert_eq!(outcome.stats.requests, 2);
        assert_eq!(outcome.stats.tokens_generated, 6);
        // Unbounded: nobody queued, nothing spilled, but the high-water mark
        // still saw both requests' bytes.
        assert_eq!(outcome.contention.total_queue_ticks, 0);
        assert_eq!(outcome.contention.spill_bytes, 0);
        assert!(outcome.contention.peak_residency_bytes > 0);
        assert!(outcome
            .contention
            .per_request
            .iter()
            .all(|t| t.kv_bytes > 0));
    }

    #[test]
    fn finish_before_idle_is_a_recoverable_error() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1, 2], 3));
        let err = scheduler.finish().unwrap_err();
        assert_eq!((err.active, err.waiting), (1, 0));
        assert!(err.to_string().contains("1 request(s) still decoding"));
        // Nothing in flight was lost: the scheduler comes back out of the
        // error and the batch still completes.
        let outcome = err.resume().run_to_completion();
        assert_eq!(outcome.outcomes[0].generated.len(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_not_a_panic() {
        let config = SchedulerConfig::default().with_kv_capacity_bytes(0);
        assert_eq!(config.kv_capacity_bytes, Some(1));
        // A hand-assembled zero is clamped at construction too.
        let engine = engine();
        let raw = SchedulerConfig {
            kv_capacity_bytes: Some(0),
            admission: AdmissionPolicy::Fcfs,
            tiering: None,
            parallel_axis: ParallelAxis::Auto,
            chaos: None,
            slo: SloSpec::default(),
        };
        let scheduler = BatchScheduler::with_config(&engine, raw);
        assert_eq!(scheduler.ledger().capacity_bytes(), 1);
    }

    #[test]
    fn bounded_capacity_queues_and_backfills() {
        let engine = engine();
        // Room for exactly one 4-token prompt at a time (the second request's
        // decode growth will oversubscribe, which is allowed).
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        // Only the first fits; the second waits.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 1);

        let s1 = scheduler.step();
        assert_eq!(s1.len(), 1);
        let s2 = scheduler.step();
        assert!(s2[0].finished);
        // The release back-filled the queue within the same step call.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 0);
        scheduler.step();
        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("batch is idle");
        let timing = &outcome.contention.per_request[1];
        assert_eq!(timing.queue_ticks, 2);
        assert_eq!(outcome.contention.total_queue_ticks, 2);
        assert_eq!(outcome.contention.max_queue_ticks, 2);
    }

    #[test]
    fn oversized_request_is_force_admitted() {
        let engine = engine();
        // Capacity smaller than even a single token's footprint.
        let config = SchedulerConfig::default().with_kv_capacity_bytes(1);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3], 2));
        assert_eq!(scheduler.active(), 1, "empty machine must force-admit");
        let outcome = scheduler.run_to_completion();
        assert_eq!(outcome.outcomes[0].generated.len(), 2);
        // Everything beyond the 1-byte capacity spilled.
        assert!(outcome.contention.spill_bytes > 0);
        let timing = &outcome.contention.per_request[0];
        assert_eq!(timing.granted_bytes, Some(1));
    }

    #[test]
    fn shortest_prompt_first_overtakes() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(8);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_admission(AdmissionPolicy::ShortestPromptFirst);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        // The 8-token prompt fills the machine; then a long and a short
        // request queue behind it.
        scheduler.submit(ServeRequest::new(vec![1; 8], 1));
        scheduler.submit(ServeRequest::new(vec![2; 6], 1));
        scheduler.submit(ServeRequest::new(vec![3; 2], 1));
        assert_eq!(scheduler.waiting(), 2);
        let outcome = scheduler.run_to_completion();
        let timings = &outcome.contention.per_request;
        // The short prompt (submitted last) was admitted no later than the
        // 6-token one.
        assert!(timings[2].admitted_tick <= timings[1].admitted_tick);
        // Outcomes stay in submission order regardless of admission order.
        assert_eq!(outcome.outcomes[0].generated.len(), 1);
        assert_eq!(outcome.outcomes.len(), 3);
    }

    #[test]
    fn capacity_fit_skips_blocked_head() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(8);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_admission(AdmissionPolicy::CapacityFit);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        // 6 tokens active; a 7-token head would need 13 total, but the
        // 2-token request behind it fits alongside.
        scheduler.submit(ServeRequest::new(vec![1; 6], 4));
        scheduler.submit(ServeRequest::new(vec![2; 7], 1));
        scheduler.submit(ServeRequest::new(vec![3; 2], 1));
        assert_eq!(scheduler.active(), 2, "first-fit admits around the head");
        let outcome = scheduler.run_to_completion();
        let timings = &outcome.contention.per_request;
        assert_eq!(timings[2].queue_ticks, 0);
        assert!(timings[1].queue_ticks > 0);
    }

    #[test]
    fn shared_prefix_is_charged_once_across_the_batch() {
        use crate::prefix::PrefixSharingConfig;
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        let prefix: Vec<usize> = (0..12).map(|i| (i * 3 + 2) % 512).collect();
        assert!(engine.publish_prefix(&prefix));
        let shared_footprint = engine.kv_footprint_bytes(prefix.len());

        let requests: Vec<ServeRequest> = (0..3)
            .map(|i| {
                let mut prompt = prefix.clone();
                prompt.extend([100 + i, 200 + i]);
                ServeRequest::new(prompt, 2)
            })
            .collect();
        let total_private: u64 = requests
            .iter()
            .map(|r| engine.kv_footprint_bytes(r.prompt().len()) - shared_footprint)
            .sum();

        let mut scheduler = BatchScheduler::new(&engine);
        for request in requests {
            scheduler.submit(request);
        }
        // All three are active; the ledger charges the prefix once.
        assert_eq!(scheduler.active(), 3);
        assert_eq!(
            scheduler.ledger().live_bytes(),
            shared_footprint + total_private
        );
        assert_eq!(scheduler.ledger().shared_bytes(), shared_footprint);
        assert_eq!(
            scheduler.ledger().dedup_savings_bytes(),
            2 * shared_footprint
        );
        let outcome = scheduler.run_to_completion();
        assert_eq!(outcome.prefix.hit_requests, 3);
        assert_eq!(outcome.prefix.hit_tokens, 3 * prefix.len() as u64);
        assert_eq!(outcome.prefix.shared_bytes, shared_footprint);
        assert_eq!(outcome.prefix.deduplicated_bytes, 2 * shared_footprint);
        assert_eq!(outcome.stats.prefix_hit_tokens, 3 * prefix.len() as u64);
        // Every request reports its own hit in the per-request outcome.
        assert!(outcome
            .outcomes
            .iter()
            .all(|o| o.prefix_hit_tokens == prefix.len() && o.prefilled_tokens == 2));
    }

    #[test]
    fn shared_prefix_admission_fits_more_sessions() {
        use crate::prefix::PrefixSharingConfig;
        let prefix: Vec<usize> = (0..10).collect();
        let build = |sharing: bool| {
            let mut builder = KelleEngine::builder();
            if sharing {
                builder = builder.prefix_sharing(PrefixSharingConfig::enabled());
            }
            builder.build()
        };
        let make_requests = || -> Vec<ServeRequest> {
            (0..2)
                .map(|i| {
                    let mut prompt = prefix.clone();
                    prompt.push(400 + i);
                    ServeRequest::new(prompt, 1)
                })
                .collect()
        };

        let sharing = build(true);
        assert!(sharing.publish_prefix(&prefix));
        // Capacity: one full prompt plus one suffix — enough for both
        // requests only when the prefix is deduplicated.
        let capacity = sharing.kv_footprint_bytes(prefix.len() + 1)
            + (sharing.kv_footprint_bytes(prefix.len() + 1)
                - sharing.kv_footprint_bytes(prefix.len()));
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);

        let mut with = BatchScheduler::with_config(&sharing, config);
        for request in make_requests() {
            with.submit(request);
        }
        assert_eq!(with.active(), 2, "dedup makes both prompts fit at once");

        let cold = build(false);
        let mut without = BatchScheduler::with_config(&cold, config);
        for request in make_requests() {
            without.submit(request);
        }
        assert_eq!(without.active(), 1, "without sharing the second queues");
        // Streams are identical either way.
        let a = with.run_to_completion();
        let b = without.run_to_completion();
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.generated, y.generated);
        }
        assert_eq!(b.prefix, PrefixBatchMetrics::default());
    }

    #[test]
    fn backfill_admits_only_after_shared_prefix_detach_frees_bytes() {
        use crate::prefix::PrefixSharingConfig;
        let engine = KelleEngine::builder()
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build();
        let prefix: Vec<usize> = (0..8).map(|i| (i * 5 + 3) % 512).collect();
        assert!(engine.publish_prefix(&prefix));
        let shared = engine.kv_footprint_bytes(prefix.len());

        // Request A rides the shared prefix (2 private suffix tokens);
        // request B (no prefix match) is sized so it fits the capacity alone
        // but NOT alongside any part of A — not even the shared-pool bytes:
        //   footprint(B) <= capacity  and  footprint(B) > capacity - shared.
        // B can therefore only be admitted once A's completion both releases
        // its private lease *and* detaches the last shared-pool reference.
        let mut a_prompt = prefix.clone();
        a_prompt.extend([100, 101]);
        let b_prompt: Vec<usize> = (0..10).map(|i| 300 + i).collect();
        let capacity = engine.kv_footprint_bytes(11);
        let b_footprint = engine.kv_footprint_bytes(b_prompt.len());
        assert!(b_footprint <= capacity);
        assert!(
            b_footprint > capacity - shared,
            "B must need the shared-pool bytes back, not just A's private lease"
        );

        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(a_prompt, 2));
        scheduler.submit(ServeRequest::new(b_prompt.clone(), 1));
        assert_eq!(scheduler.active(), 1, "B waits while A holds the prefix");
        assert_eq!(scheduler.waiting(), 1);
        assert!(scheduler.ledger().has_shared(0));

        scheduler.step();
        assert_eq!(scheduler.waiting(), 1, "A still active: no room for B");
        // A finishes mid-tick: complete() releases its lease, detaches the
        // shared prefix (last holder), and the same step() call back-fills B.
        scheduler.step();
        assert_eq!(scheduler.active(), 1, "B admitted by the back-fill");
        assert_eq!(scheduler.waiting(), 0);
        assert!(
            !scheduler.ledger().has_shared(0),
            "last detach emptied the shared pool"
        );

        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("batch is idle");
        let timings = &outcome.contention.per_request;
        assert_eq!(timings[0].finished_tick, timings[1].admitted_tick);
        assert_eq!(timings[1].queue_ticks, 2);
        assert_eq!(outcome.prefix.hit_requests, 1);
        // B's stream is unaffected by having queued behind the prefix bytes.
        let unbounded = engine.serve_one(&b_prompt, 1);
        assert_eq!(outcome.outcomes[1].generated, unbounded.generated);
    }

    #[test]
    fn partitioned_budgets_reflect_active_sessions() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1; 6], 4));
        scheduler.submit(ServeRequest::new(vec![2; 2], 4));
        let equal = scheduler.partitioned_budgets(PartitionMode::EqualSplit);
        assert_eq!(equal.len(), 2);
        assert_eq!(equal[0].1, equal[1].1);
        let proportional = scheduler.partitioned_budgets(PartitionMode::ProportionalToContext);
        // The 6-token session holds more context, so it gets the larger N'.
        assert!(proportional[0].1.max_tokens > proportional[1].1.max_tokens);
        let total: usize = proportional.iter().map(|(_, b)| b.max_tokens).sum();
        assert!(total <= engine.config().budget.max_tokens);
    }

    #[test]
    fn tiering_streams_match_unbounded_and_stay_within_edram_budget() {
        let engine = engine();
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(vec![10 + i, 20 + i, 30 + i, 40 + i], 3))
            .collect();

        let mut unbounded = BatchScheduler::new(&engine);
        for request in &requests {
            unbounded.submit(request.clone());
        }
        let baseline = unbounded.run_to_completion();

        // eDRAM holds one 4-token prompt at a time: the fleet's total KV
        // overflows on chip and must queue + demote.
        let edram = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        for request in &requests {
            scheduler.submit(request.clone());
        }
        let tiered = scheduler.run_to_completion();

        // Bit-identical functional and hardware outcomes; only the tiering
        // metrics differ from their all-zero default.
        for (a, b) in baseline.outcomes.iter().zip(tiered.outcomes.iter()) {
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.hardware, b.hardware);
        }
        assert_eq!(baseline.stats, tiered.stats);
        assert_ne!(tiered.tiering, TieringMetrics::default());
        // The settled eDRAM residency respects the budget; overflow lived in
        // the slower tiers and came back at a modelled migration cost.
        assert!(tiered.tiering.edram.settled_peak_bytes <= edram);
        assert!(tiered.tiering.demotions > 0);
        assert!(tiered.tiering.promotions > 0);
        assert!(tiered.tiering.migration_time_s > 0.0);
        assert!(tiered.tiering.migration_energy_j > 0.0);
        assert_eq!(
            tiered.tiering.migrated_bytes,
            tiered.tiering.edram.out_bytes + tiered.tiering.edram.in_bytes,
            "with a one-prompt eDRAM all migrations cross the eDRAM boundary"
        );
    }

    #[test]
    fn oversized_session_thrashes_but_completes_identically() {
        let engine = engine();
        let request = ServeRequest::new(vec![1, 2, 3, 4, 5, 6, 7, 8], 4);
        let alone = engine.serve_one(request.prompt(), 4);

        // The single session is larger than the whole eDRAM tier: it is
        // force-admitted, demoted by every rebalance, and promoted back each
        // tick — a modelled swap loop, not a correctness problem.
        let edram = engine.kv_footprint_bytes(1);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(request);
        let outcome = scheduler.run_to_completion();

        assert_eq!(outcome.outcomes[0].generated, alone.generated);
        assert_eq!(outcome.outcomes[0].hardware, alone.hardware);
        assert!(
            outcome.tiering.demotions >= 3 && outcome.tiering.promotions >= 3,
            "expected a swap per tick, got {}/{}",
            outcome.tiering.demotions,
            outcome.tiering.promotions
        );
        // No grant shrinkage and no spill: capacity spans the hierarchy.
        assert_eq!(outcome.contention.per_request[0].granted_bytes, None);
        assert_eq!(outcome.contention.spill_bytes, 0);
    }

    #[test]
    fn deadline_sheds_with_partial_output() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(
            ServeRequest::builder(vec![1, 2, 3])
                .decode_len(10)
                .deadline_ticks(3)
                .build(),
        );
        let alone = engine.serve_one(&[1, 2, 3], 10);
        for _ in 0..4 {
            scheduler.step();
        }
        assert!(scheduler.is_idle(), "deadline shed the request");
        let outcome = scheduler.finish().expect("idle");
        let shed = &outcome.outcomes[0];
        assert_eq!(shed.shed, Some(ShedReason::DeadlineExceeded));
        // Three full ticks of decode before the shed, bit-identical to the
        // unconstrained stream's prefix.
        assert_eq!(shed.generated, alone.generated[..3]);
        assert_eq!(outcome.chaos.shed_requests, 1);
    }

    #[test]
    fn queue_timeout_sheds_waiting_requests() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 8));
        scheduler.submit(
            ServeRequest::builder(vec![5, 6, 7, 8])
                .decode_len(2)
                .queue_timeout_ticks(2)
                .build(),
        );
        assert_eq!(scheduler.waiting(), 1);
        for _ in 0..3 {
            scheduler.step();
        }
        assert_eq!(scheduler.waiting(), 0, "queue timeout expired");
        let outcome = scheduler.run_to_completion();
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::QueueTimeout));
        assert!(outcome.outcomes[1].generated.is_empty());
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[0].generated.len(), 8);
    }

    #[test]
    fn cancel_finalizes_mid_stream_and_releases_capacity() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        let a = scheduler.submit(ServeRequest::new(vec![1, 2, 3], 8));
        let b = scheduler.submit(ServeRequest::new(vec![4, 5, 6], 2));
        scheduler.step();
        assert!(scheduler.cancel(a));
        assert!(!scheduler.cancel(a), "already finished");
        assert!(!scheduler.cancel(99), "unknown index");
        let outcome = scheduler.run_to_completion();
        assert_eq!(outcome.outcomes[a].shed, Some(ShedReason::Cancelled));
        assert_eq!(outcome.outcomes[a].generated.len(), 1);
        assert_eq!(outcome.outcomes[b].shed, None);
        assert_eq!(outcome.chaos.cancelled_requests, 1);
    }

    #[test]
    fn drain_stops_admission_and_releases_everything() {
        let engine = engine();
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_kv_capacity_bytes(capacity);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 4));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 4));
        assert_eq!((scheduler.active(), scheduler.waiting()), (1, 1));
        scheduler.step();
        scheduler.drain().expect("no chaos, drain cannot fail");
        assert!(scheduler.is_draining());
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.ledger().live_bytes(), 0);
        assert_eq!(scheduler.ledger().shared_bytes(), 0);
        let outcome = scheduler.finish().expect("drained scheduler is idle");
        // The active request ran to completion; the queued one was dropped.
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[0].generated.len(), 4);
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::Drained));
        assert_eq!(outcome.chaos.drained_requests, 1);
    }

    #[test]
    fn chaos_recovery_keeps_streams_bit_identical() {
        use crate::parallel::WorkerPool;
        let engine = engine();
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(vec![10 + i, 20 + i, 30 + i], 4))
            .collect();

        let mut baseline = BatchScheduler::new(&engine);
        for request in &requests {
            baseline.submit(request.clone());
        }
        let clean = baseline.run_to_completion();

        let chaos = ChaosConfig::default()
            .with_seed(7)
            .with_worker_panics(250)
            .with_ledger_blips(100)
            .with_max_retries(4);
        let config = SchedulerConfig::default().with_chaos(chaos);
        for workers in [1, 2, 4] {
            let chaotic = std::thread::scope(|scope| {
                let mut pool = WorkerPool::start(scope, workers);
                let mut scheduler = BatchScheduler::with_config(&engine, config);
                for request in &requests {
                    scheduler.submit_with(request.clone(), &mut pool);
                }
                scheduler.try_run_to_completion_streaming_with(&mut pool, |_, _| {})
            })
            .expect("retry budget absorbs every injected panic");
            assert!(
                chaotic.chaos.injected_panics > 0,
                "the 25% panic rate must fire across 4x4 decode steps"
            );
            assert_eq!(chaotic.chaos.lost_requests, 0);
            assert!(chaotic.chaos.restored_sessions >= chaotic.chaos.replayed_steps);
            for (a, b) in clean.outcomes.iter().zip(chaotic.outcomes.iter()) {
                assert_eq!(a.generated, b.generated);
                assert_eq!(a.faults, b.faults);
                assert_eq!(a.hardware, b.hardware);
            }
            assert_eq!(clean.stats, chaotic.stats);
        }
    }

    #[test]
    fn exhausted_retries_surface_worker_lost_and_stay_consistent() {
        let engine = engine();
        let chaos = ChaosConfig::default()
            .with_seed(3)
            .with_worker_panics(1000)
            .with_max_retries(0);
        let config = SchedulerConfig::default().with_chaos(chaos);
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3], 4));
        let err = scheduler
            .try_step_with(&mut InlineExecutor)
            .expect_err("a certain panic with no retries must be lost");
        match err {
            ServeError::WorkerLost {
                request, attempts, ..
            } => {
                assert_eq!(request, 0);
                assert_eq!(attempts, 1);
            }
        }
        // The lost request was finalized; the scheduler is drainable and
        // leak-free.
        assert!(scheduler.is_idle());
        assert_eq!(scheduler.ledger().live_bytes(), 0);
        let outcome = scheduler.finish().expect("idle after the loss");
        assert_eq!(outcome.outcomes[0].shed, Some(ShedReason::WorkerLost));
        assert_eq!(outcome.chaos.lost_requests, 1);
    }

    #[test]
    fn tiering_admission_queues_against_the_edram_budget_only() {
        let engine = engine();
        let edram = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default().with_tiering(TierConfig::with_edram_budget(edram));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        // The ledger spans the hierarchy (it has room), but the second
        // request still waits for on-chip space.
        assert_eq!(scheduler.active(), 1);
        assert_eq!(scheduler.waiting(), 1);
        assert!(scheduler.ledger().can_fit(edram));
        let outcome = scheduler.run_to_completion();
        assert!(outcome.contention.total_queue_ticks > 0);
    }

    #[test]
    fn future_arrivals_join_at_their_tick() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(
            ServeRequest::builder(vec![1, 2])
                .decode_len(2)
                .arrival_tick(3)
                .build(),
        );
        assert_eq!(scheduler.active(), 0, "not arrived yet");
        assert_eq!(scheduler.scheduled(), 1);
        assert!(!scheduler.is_idle(), "a scheduled arrival keeps it busy");
        // Ticks 1 and 2 pass idle; tick 3 admits the arrival.
        assert!(scheduler.step().is_empty());
        assert!(scheduler.step().is_empty());
        assert!(scheduler.step().is_empty());
        assert_eq!((scheduler.active(), scheduler.scheduled()), (1, 0));
        assert_eq!(scheduler.step().len(), 1);
        scheduler.step();
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("idle");
        let timing = &outcome.contention.per_request[0];
        assert_eq!(timing.submitted_tick, 3);
        assert_eq!(timing.admitted_tick, 3);
        assert_eq!(timing.queue_ticks, 0, "admitted the tick it arrived");
        assert_eq!(timing.first_token_tick, Some(4));
        // The stream is exactly what an eager submission produces.
        let eager = engine.serve_one(&[1, 2], 2);
        assert_eq!(outcome.outcomes[0].generated, eager.generated);
    }

    #[test]
    fn drain_sheds_scheduled_arrivals() {
        let engine = engine();
        let mut scheduler = BatchScheduler::new(&engine);
        scheduler.submit(ServeRequest::new(vec![1, 2], 2));
        scheduler.submit(
            ServeRequest::builder(vec![3, 4])
                .decode_len(1)
                .arrival_tick(50)
                .build(),
        );
        scheduler.drain().expect("no chaos");
        assert!(scheduler.is_idle());
        let outcome = scheduler.finish().expect("idle");
        assert_eq!(outcome.outcomes[0].shed, None);
        assert_eq!(outcome.outcomes[1].shed, Some(ShedReason::Drained));
    }

    #[test]
    fn slo_report_classifies_goodput() {
        let engine = engine();
        // Room for one 4-token prompt: the second request queues behind the
        // first and misses the 1-tick TTFT bound.
        let capacity = engine.kv_footprint_bytes(4);
        let config = SchedulerConfig::default()
            .with_kv_capacity_bytes(capacity)
            .with_slo(SloSpec::new(1, f64::MAX));
        let mut scheduler = BatchScheduler::with_config(&engine, config);
        scheduler.submit(ServeRequest::new(vec![1, 2, 3, 4], 2));
        scheduler.submit(ServeRequest::new(vec![5, 6, 7, 8], 2));
        let outcome = scheduler.run_to_completion();
        let slo = &outcome.slo;
        assert_eq!((slo.requests, slo.completed, slo.shed), (2, 2, 0));
        assert_eq!(slo.ttft.samples, 2);
        assert_eq!(slo.ttft.p50, 1.0, "the uncontended request's TTFT");
        assert!(slo.ttft.max > 1.0, "the queued request waited");
        assert_eq!(slo.tpot.samples, 2);
        assert_eq!(slo.tpot.p50, 1.0, "one token per tick");
        assert!(slo.queue.max > 0.0);
        assert_eq!(slo.goodput_requests, 1, "only the first met the bound");
        assert_eq!(slo.goodput_tokens, 2);
        assert_eq!(slo.total_tokens, 4);
        assert!(slo.goodput_fraction() == 0.5);
        assert!(slo.goodput_tokens_per_kilotick() > 0.0);
        // The unified report carries every block unchanged.
        let report = outcome.report();
        assert_eq!(report.slo, outcome.slo);
        assert_eq!(report.contention, outcome.contention);
        assert_eq!(report.prefix, outcome.prefix);
        assert_eq!(report.chaos, outcome.chaos);
    }

    #[test]
    fn latency_summary_uses_nearest_rank() {
        let summary = LatencySummary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.p95, 95.0);
        assert_eq!(summary.p99, 99.0);
        assert_eq!(summary.max, 100.0);
        assert_eq!(summary.mean, 50.5);
        assert_eq!(summary.samples, 100);
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
        let one = LatencySummary::from_samples(vec![7.0]);
        assert_eq!((one.p50, one.p99, one.max), (7.0, 7.0, 7.0));
    }
}
