//! Threaded serving front-end: deterministic multi-worker decode over the
//! batch scheduler.
//!
//! Kelle's edge-serving story assumes the accelerator pipeline is kept busy
//! by many concurrent sessions.  On the functional side that means the
//! per-session prefill/decode compute of a served batch — by far the
//! dominant cost — should spread across host cores, *without* the
//! nondeterminism that usually comes with threading.  This module is that
//! front-end: a work-stealing worker pool plus the task protocol the
//! [`BatchScheduler`] fans compute out through.
//!
//! # Threading model
//!
//! **Sharded per worker (moves):** whole [`Session`]s — the KV-cache backend
//! over its arenas, the fault-RNG stream, the generation cursor.  Sessions
//! are `Send` and mutually independent: a decode step touches only its own
//! session plus shared *read-only* state (the model weights through
//! `&KelleEngine`, and published prefix segments through their
//! `Arc<ArenaGrid>` bases — reads need no lock).  A session is owned by
//! exactly one task at a time, so workers never contend on session state.
//!
//! **Coordinator-owned (never crosses threads):** the admission pipeline,
//! the waiting queue, the [`CapacityLedger`](kelle_edram::CapacityLedger),
//! the prefix store's index and statistics, request timings and the engine's
//! lifetime statistics.  All mutations of shared serving state happen on the
//! coordinating thread, batched into a **per-tick commit** in request
//! submission order.
//!
//! **Intra-session (fork-join):** the second axis.  Under
//! [`ParallelAxis::Intra`] (or `Auto` on a narrow batch) sessions stay on
//! the coordinator and each decode step forks its per-head attention jobs
//! and row-blocked projection jobs across the *same* workers through
//! [`PoolRunner`].  Per-head fault-RNG draws come from deterministic
//! `(layer, head)` lanes (see [`kelle_model::fault::FaultInjector`]), so
//! fork order can never reorder a shared random stream; cache observation
//! callbacks are replayed serially in head order after the fork joins.
//! Both axes therefore produce **bit-identical** tokens, probability bits
//! and fault statistics — pinned by the `integration_intra` suite for all
//! five cache policies and re-checked in CI at `--workers 1,2,4`.
//!
//! # Sticky shards
//!
//! The work-stealing [`WorkerPool`] moves **whole sessions** through the
//! shared queue twice per tick (fan-out and result).  For long-lived,
//! mostly-idle fleets — the `kelle::front` shape — that per-tick traffic is
//! pure overhead: the session's KV backend never needed to leave its
//! worker.  The [`StickyShardPool`] fixes the shape: each session is
//! **pinned to a shard** (`index % workers`) and parked *on* its worker
//! between ticks; per tick only a [`StickyStep`] — the decoded step, two
//! cursors and the shard id, no session — crosses back to the coordinator.
//! Commit stays on the coordinator, sorted by request index, so streams
//! remain bit-identical to the stealing pool and to sequential serving
//! ([`ParallelMetrics::queue_crossings`] on the [`BatchOutcome`] is what
//! turns the saved traffic into a measured number).  Sessions never migrate
//! between shards, so a pinned fleet reports `sessions_migrated == 0`.
//!
//! # Why determinism holds
//!
//! Each scheduler tick is a fan-out/commit cycle
//! ([`BatchScheduler::step_with`]):
//!
//! 1. every active session moves into a [`SessionTask`]; workers steal tasks
//!    from a shared injector queue and run them in whatever order the OS
//!    schedules — which is fine, because task results are a pure function of
//!    the session they own;
//! 2. the coordinator collects all outputs, sorts them by request index, and
//!    commits the tick — token/trace bookkeeping, one batched ledger commit
//!    ([`commit_growth`](kelle_edram::CapacityLedger::commit_growth)),
//!    completions (hardware simulation + engine statistics, still in index
//!    order, so even f64 accumulation order is preserved) and admission
//!    back-fill — exactly as single-threaded serving would.
//!
//! Admission prefills follow the same split ([`BatchScheduler`]'s admission
//! pump): candidate selection, ledger reservations and the prefix-store
//! *plan* run on the coordinator in admission order; only the planned
//! compute fans out.  A plan that will publish a prefix boundary
//! (auto-publish) is flushed before the next admission is planned, so store
//! visibility matches the sequential order too.
//!
//! The result: token streams, probability bits, fault statistics and every
//! [`BatchOutcome`] metric are **bit-identical to single-threaded serving
//! for every worker count** — pinned by the `integration_parallel` suite
//! (all five cache policies, prefix hits, contention-limited admission) and
//! re-checked in CI at `--workers 1,2,4` by the determinism gate.
//! Throughput scaling lives in `BENCH_serving.json` (emitted by the
//! `bench_serving` binary: aggregate decode tokens/s vs worker count on the
//! 8-session shared-prompt fleet).
//!
//! # Entry points
//!
//! Most callers want [`KelleEngine::serve`] with [`ServeOptions::parallel`]
//! plus [`EngineBuilder::workers`]; driving a [`BatchScheduler`] manually
//! with a [`WorkerPool`] — as [`serve_batch_parallel`] does — is the
//! low-level interface benchmarks use to time individual phases.
//!
//! [`ServeOptions::parallel`]: crate::engine::ServeOptions::parallel
//! [`EngineBuilder::workers`]: crate::engine::EngineBuilder::workers

use crate::chaos::ServeError;
use crate::engine::KelleEngine;
use crate::scheduler::{BatchOutcome, BatchScheduler, SchedulerConfig};
use crate::session::{PrefillPlan, ServeRequest, Session};
use kelle_model::DecodeStep;
use kelle_tensor::par::{Job, ParallelRunner};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

/// Which axis of parallelism a scheduler tick fans decode compute out on
/// (the [`SchedulerConfig::with_parallel_axis`] knob).
///
/// Both axes produce **bit-identical** token streams, probability bits and
/// fault statistics — the axis changes wall-clock time only.  Session
/// parallelism wins when the batch is wide (many independent sessions keep
/// every worker busy); intra-session parallelism wins when the batch is
/// narrow (a single session cannot saturate the pool, so its per-head
/// attention and row-blocked projections are fanned out instead).
///
/// [`SchedulerConfig::with_parallel_axis`]: crate::scheduler::SchedulerConfig::with_parallel_axis
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParallelAxis {
    /// One task per session; whole sessions move to workers (the classic
    /// batch axis).
    Session,
    /// Sessions decode one at a time on the coordinator; each decode step's
    /// per-head attention and projection row blocks fan out to the workers
    /// through a [`PoolRunner`].
    Intra,
    /// Pick per tick: intra-session when the batch is too narrow to keep
    /// the pool busy (one task, or fewer than half a task per worker),
    /// session-parallel otherwise.
    #[default]
    Auto,
}

/// Cross-thread traffic counters for one batch, reported on
/// [`BatchOutcome::parallel`](crate::scheduler::BatchOutcome::parallel).
///
/// These measure the *executor protocol*, not the streams: every execution
/// mode produces bit-identical tokens, and this struct is how the
/// sticky-shard win over work stealing becomes a number instead of a claim
/// (`bench_front` → `BENCH_front.json`).  Inline and intra-axis execution
/// move nothing across threads, so they count zero crossings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelMetrics {
    /// Whole-session cross-thread transfers: +2 per decode output and +2
    /// per admission prefill on the work-stealing pool (fan-out plus
    /// result), +1 per park and +1 per recall on the sticky pool.  Step
    /// results crossing back from a sticky shard move no session and count
    /// zero.
    pub queue_crossings: u64,
    /// Ticks on which a session's step ran on a *different* worker than its
    /// previous step — always zero for pinned (sticky) execution, typically
    /// nonzero under work stealing.
    pub sessions_migrated: u64,
    /// Scheduler ticks the batch ran for (the denominator of
    /// crossings-per-tick).
    pub ticks: u64,
}

impl ParallelMetrics {
    /// Queue crossings per scheduler tick (0 when the batch never ticked).
    pub fn crossings_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.queue_crossings as f64 / self.ticks as f64
        }
    }
}

/// One unit of per-session compute: a session together with the prefill or
/// decode step to run on it.
///
/// Tasks are created by the [`BatchScheduler`]'s fan-out phases and consumed
/// by a [`StepExecutor`]; an executor's only obligation is to call
/// [`run`](SessionTask::run) on every task exactly once (on any thread — the
/// task owns everything it needs) and hand all outputs back.
#[derive(Debug)]
pub struct SessionTask<'e> {
    index: usize,
    session: Session<'e>,
    work: Work,
    /// Chaos-plan sabotage: when set, the task panics *after* its step
    /// computes, so the mutated session is genuinely lost mid-tick (the
    /// strongest case for checkpoint/replay recovery).
    sabotage: bool,
}

#[derive(Debug)]
enum Work {
    /// One decode step ([`Session::decode_one`]).
    Decode,
    /// A planned prefill of the request's prompt (the plan was resolved on
    /// the coordinator; `Cold`/`Hit` executions touch no shared state).
    Prefill {
        tokens: Vec<usize>,
        plan: PrefillPlan,
    },
}

impl<'e> SessionTask<'e> {
    /// A decode-step task for request `index`.
    pub(crate) fn decode(index: usize, session: Session<'e>) -> Self {
        SessionTask {
            index,
            session,
            work: Work::Decode,
            sabotage: false,
        }
    }

    /// A planned-prefill task for request `index`.
    pub(crate) fn prefill(
        index: usize,
        session: Session<'e>,
        tokens: Vec<usize>,
        plan: PrefillPlan,
    ) -> Self {
        SessionTask {
            index,
            session,
            work: Work::Prefill { tokens, plan },
            sabotage: false,
        }
    }

    /// Arms the chaos sabotage: the task will panic after computing its step.
    pub(crate) fn arm_sabotage(&mut self) {
        self.sabotage = true;
    }

    /// The request index (submission order) this task belongs to.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Executes the task, consuming it and returning the session inside the
    /// output.
    pub fn run(self) -> TaskOutput<'e> {
        let SessionTask {
            index,
            mut session,
            work,
            sabotage,
        } = self;
        let payload = match work {
            Work::Decode => {
                let tokens_before = session.position();
                let step = session.decode_one();
                Payload::Decode {
                    step,
                    tokens_before,
                }
            }
            Work::Prefill { tokens, plan } => Payload::Prefill {
                computed: session.prefill_planned(&tokens, plan),
            },
        };
        if sabotage {
            panic!("chaos: injected worker panic (request {index})");
        }
        TaskOutput {
            index,
            session,
            payload,
            worker: None,
        }
    }

    /// [`run`](SessionTask::run) with decode compute fanned out through
    /// `runner` — the intra-session axis.  Prefill tasks ignore the runner
    /// (a prefill is a one-off cost the session axis already covers);
    /// decode output is bit-identical to [`run`](SessionTask::run) by the
    /// [`ParallelRunner`] partitioning contract.
    pub fn run_with(self, runner: &dyn ParallelRunner) -> TaskOutput<'e> {
        let SessionTask {
            index,
            mut session,
            work,
            sabotage,
        } = self;
        let payload = match work {
            Work::Decode => {
                let tokens_before = session.position();
                let step = session.decode_one_with(runner);
                Payload::Decode {
                    step,
                    tokens_before,
                }
            }
            Work::Prefill { tokens, plan } => Payload::Prefill {
                computed: session.prefill_planned(&tokens, plan),
            },
        };
        if sabotage {
            panic!("chaos: injected worker panic (request {index})");
        }
        TaskOutput {
            index,
            session,
            payload,
            worker: None,
        }
    }
}

/// The result of running one [`SessionTask`]: the session comes back to the
/// coordinator together with what the step produced.
#[derive(Debug)]
pub struct TaskOutput<'e> {
    index: usize,
    session: Session<'e>,
    payload: Payload,
    /// Worker thread that ran the task (`None` when it ran inline on the
    /// coordinator) — feeds [`ParallelMetrics::sessions_migrated`].
    worker: Option<usize>,
}

#[derive(Debug)]
enum Payload {
    Decode {
        step: DecodeStep,
        /// Session position before the step (for the lease-growth delta).
        tokens_before: usize,
    },
    Prefill {
        /// Prompt tokens whose prefill was actually computed.
        computed: usize,
    },
}

impl<'e> TaskOutput<'e> {
    /// The request index this output belongs to (the scheduler sorts outputs
    /// by it before committing a tick).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker thread that ran the task, or `None` when it ran inline on
    /// the coordinator (the [`InlineExecutor`] and the intra axis).
    pub fn worker(&self) -> Option<usize> {
        self.worker
    }

    pub(crate) fn into_decode(self) -> (usize, Session<'e>, DecodeStep, usize) {
        match self.payload {
            Payload::Decode {
                step,
                tokens_before,
            } => (self.index, self.session, step, tokens_before),
            Payload::Prefill { .. } => unreachable!("decode fan-out produced a prefill output"),
        }
    }

    pub(crate) fn into_prefill(self) -> (usize, Session<'e>, usize) {
        match self.payload {
            Payload::Prefill { computed } => (self.index, self.session, computed),
            Payload::Decode { .. } => unreachable!("admission fan-out produced a decode output"),
        }
    }
}

/// A task whose execution panicked: the session it owned is lost, but the
/// tick survives — surviving outputs still commit and the scheduler can
/// replay the lost step from checkpoint.
#[derive(Debug, Clone)]
pub struct TaskFailure {
    index: usize,
    message: String,
}

impl TaskFailure {
    /// The request index whose task failed.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The stringified panic payload.
    pub fn message(&self) -> &str {
        &self.message
    }
}

/// The partitioned result of one fallible fan-out: the outputs of every task
/// that completed plus a [`TaskFailure`] for every task that panicked.
#[derive(Debug)]
pub struct TickResult<'e> {
    /// Outputs of the tasks that completed (any order).
    pub outputs: Vec<TaskOutput<'e>>,
    /// One entry per task whose execution panicked.
    pub failures: Vec<TaskFailure>,
}

impl<'e> TickResult<'e> {
    /// Unwraps into the outputs, resurfacing the first failure as a panic —
    /// the legacy infallible behaviour.  The full batch has already been
    /// drained, so a caller that catches the panic keeps a reusable
    /// executor.
    pub fn into_outputs(self) -> Vec<TaskOutput<'e>> {
        if let Some(failure) = self.failures.into_iter().next() {
            std::panic::resume_unwind(Box::new(failure.message));
        }
        self.outputs
    }
}

/// Stringifies a caught panic payload (panics raise `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = cause.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = cause.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `tasks` through `run` one at a time, catching each panic into a
/// [`TaskFailure`] so one crashed task cannot take the rest of the batch
/// down with it.
fn run_tasks_caught<'e>(
    tasks: Vec<SessionTask<'e>>,
    mut run: impl FnMut(SessionTask<'e>) -> TaskOutput<'e>,
) -> TickResult<'e> {
    let mut result = TickResult {
        outputs: Vec::with_capacity(tasks.len()),
        failures: Vec::new(),
    };
    for task in tasks {
        let index = task.index();
        match std::panic::catch_unwind(AssertUnwindSafe(|| run(task))) {
            Ok(output) => result.outputs.push(output),
            Err(cause) => result.failures.push(TaskFailure {
                index,
                message: panic_message(cause.as_ref()),
            }),
        }
    }
    result
}

/// One decode step of a shard-resident session: everything the coordinator
/// needs to commit the tick, and nothing else — crucially, **not** the
/// session, which stays parked on its worker.
///
/// This is the sticky-shard protocol's whole point: a [`StickyStep`] is a
/// few dozen bytes where a [`TaskOutput`] round-trips the entire session
/// (KV backend, fault RNG, cursors) through the queue.
#[derive(Debug, Clone)]
pub struct StickyStep {
    /// The request index (submission order) the step belongs to.
    pub index: usize,
    /// The decoded step (token, probability bits, fault draws).
    pub step: DecodeStep,
    /// Session position before the step (for the lease-growth delta).
    pub tokens_before: usize,
    /// Session position after the step (the coordinator's cursor mirror —
    /// it can no longer ask the session directly).
    pub position: usize,
    /// The shard that ran the step (always `index % workers` for a pinned
    /// session; feeds [`ParallelMetrics::sessions_migrated`]).
    pub worker: usize,
}

/// The partitioned result of one sticky fan-out
/// ([`StepExecutor::step_parked`]): a [`StickyStep`] per surviving session
/// plus a [`TaskFailure`] per session whose step panicked (the panicking
/// session is dropped on its worker — exactly the loss semantics of a
/// crashed stealing-pool task).
#[derive(Debug)]
pub struct StickyOutcome {
    /// Steps of the sessions that survived (any order).
    pub steps: Vec<StickyStep>,
    /// One entry per session whose step panicked.
    pub failures: Vec<TaskFailure>,
}

/// Executes batches of [`SessionTask`]s for the [`BatchScheduler`].
///
/// The contract is deliberately loose — outputs may come back in any order,
/// tasks may run on any thread — because the scheduler re-establishes
/// determinism at commit time by sorting outputs on request index.  The
/// stock executors are [`InlineExecutor`] (sequential, the default behind
/// [`BatchScheduler::step`]), the work-stealing [`WorkerPool`] and the
/// pinned [`StickyShardPool`].
///
/// The `try_*` pair is the fallible surface the chaos-hardened scheduler
/// drives: a task panic becomes a [`TaskFailure`] in the returned
/// [`TickResult`] instead of unwinding the coordinator, so surviving
/// sessions commit and the lost step can replay from checkpoint.
///
/// # The sticky surface
///
/// Executors that can hold sessions resident between ticks return `true`
/// from [`is_sticky`](StepExecutor::is_sticky) and implement
/// [`park`](StepExecutor::park) /
/// [`step_parked`](StepExecutor::step_parked) /
/// [`recall`](StepExecutor::recall); the scheduler then keeps each active
/// session parked on the executor and commits from [`StickyStep`]s instead
/// of round-tripping whole sessions.  The defaults make every pre-existing
/// executor trivially correct: not sticky, nothing ever parked, `recall`
/// finds nothing.
pub trait StepExecutor<'e> {
    /// Runs every task exactly once and returns all outputs (any order).
    fn execute(&mut self, tasks: Vec<SessionTask<'e>>) -> Vec<TaskOutput<'e>>;

    /// [`execute`](StepExecutor::execute) with an axis hint (see
    /// [`ParallelAxis`]).  Executors without a second axis — like
    /// [`InlineExecutor`] — ignore the hint; this default delegates to
    /// `execute`.  Outputs must be bit-identical for every axis.
    fn execute_axis(
        &mut self,
        tasks: Vec<SessionTask<'e>>,
        axis: ParallelAxis,
    ) -> Vec<TaskOutput<'e>> {
        let _ = axis;
        self.execute(tasks)
    }

    /// Fallible [`execute`](StepExecutor::execute): partitions the batch
    /// into completed outputs and per-task failures.  This default delegates
    /// to `execute` (which panics on failure); the stock executors override
    /// it to catch task panics instead.
    fn try_execute(&mut self, tasks: Vec<SessionTask<'e>>) -> TickResult<'e> {
        TickResult {
            outputs: self.execute(tasks),
            failures: Vec::new(),
        }
    }

    /// Fallible [`execute_axis`](StepExecutor::execute_axis).
    fn try_execute_axis(
        &mut self,
        tasks: Vec<SessionTask<'e>>,
        axis: ParallelAxis,
    ) -> TickResult<'e> {
        let _ = axis;
        self.try_execute(tasks)
    }

    /// Whether this executor holds sessions resident between ticks (see the
    /// trait-level *sticky surface* section).  Defaults to `false`.
    fn is_sticky(&self) -> bool {
        false
    }

    /// Parks `session` on its shard, where it stays resident until
    /// [`recall`](StepExecutor::recall)ed.  The scheduler only calls this on
    /// executors whose [`is_sticky`](StepExecutor::is_sticky) is `true`.
    fn park(&mut self, index: usize, session: Session<'e>) {
        let _ = index;
        drop(session);
        panic!("park requires a sticky executor");
    }

    /// Runs one decode step on every parked session in `indices`, returning
    /// the steps without moving any session.  Sticky executors only.
    fn step_parked(&mut self, indices: &[usize]) -> StickyOutcome {
        let _ = indices;
        panic!("step_parked requires a sticky executor");
    }

    /// Takes the parked session for `index` back from its shard (completion,
    /// shed, cancellation).  Non-sticky executors never hold a session, so
    /// the default returns `None`.
    fn recall(&mut self, index: usize) -> Option<Session<'e>> {
        let _ = index;
        None
    }
}

/// Runs every task inline on the calling thread, in order — the executor
/// behind the classic single-threaded [`BatchScheduler::step`] /
/// [`BatchScheduler::submit`](crate::scheduler::BatchScheduler::submit).
#[derive(Debug, Default, Clone, Copy)]
pub struct InlineExecutor;

impl<'e> StepExecutor<'e> for InlineExecutor {
    fn execute(&mut self, tasks: Vec<SessionTask<'e>>) -> Vec<TaskOutput<'e>> {
        tasks.into_iter().map(SessionTask::run).collect()
    }

    fn try_execute(&mut self, tasks: Vec<SessionTask<'e>>) -> TickResult<'e> {
        run_tasks_caught(tasks, SessionTask::run)
    }
}

/// What the injector queue carries: whole session steps (the session axis)
/// or per-head/row-block jobs of a single decode step (the intra axis).
/// One tick fans out on exactly one axis, so the two variants never
/// interleave within a fan-out — a worker running a `Job` can never be
/// holding a `Task` the same fork's latch is waiting on.
//
// A `Task` is ~900 bytes (the session's planned work rides inline) versus a
// `Job`'s two pointers, but boxing tasks would trade two moves per task per
// tick for an allocation per task per tick on the session axis — the wrong
// trade for a queue that holds at most one tick's small task fan-out.
#[allow(clippy::large_enum_variant)]
enum WorkItem<'e> {
    Task(SessionTask<'e>),
    Job(HeapJob),
}

impl std::fmt::Debug for WorkItem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkItem::Task(task) => f.debug_tuple("Task").field(&task.index()).finish(),
            WorkItem::Job(_) => f.debug_tuple("Job").finish(),
        }
    }
}

/// One forked job of a [`PoolRunner::run`] call, heap-boxed for the queue.
///
/// The closure is transmuted to `'static` so it can sit in the `'e`-typed
/// queue; this is sound because the runner blocks on `latch` until every
/// forked job has run — the borrows inside the closure strictly outlive its
/// execution (the classic scoped-spawn argument).
struct HeapJob {
    job: Job<'static>,
    latch: Arc<Latch>,
}

impl HeapJob {
    /// Runs the job, folding any panic into the latch instead of unwinding
    /// the worker.
    fn run(self) {
        let HeapJob { job, latch } = self;
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        latch.complete(result.err());
    }
}

/// Countdown latch synchronising a [`PoolRunner::run`] fork with its join.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            panic: Mutex::new(None),
        }
    }

    /// Records one finished job (and its panic payload, if it crashed).
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(cause) = panic {
            let mut slot = self.panic.lock().expect("latch panic slot poisoned");
            slot.get_or_insert(cause);
        }
        self.remaining.fetch_sub(1, Ordering::Release);
    }

    /// Spin-waits (yielding) until every forked job completed.  Jobs are a
    /// few microseconds of dense math each, so parking through a condvar
    /// would usually cost more than the remaining work.
    fn wait(&self) {
        while self.remaining.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// The first panic any forked job raised, if any.
    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().expect("latch panic slot poisoned").take()
    }
}

/// The shared injector queue workers steal tasks from.
#[derive(Debug)]
struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    tasks: VecDeque<T>,
    closed: bool,
}

impl<T> TaskQueue<T> {
    fn new() -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Injects a batch of tasks and wakes every worker.
    fn push_all(&self, items: Vec<T>) {
        let mut state = self.state.lock().expect("task queue poisoned");
        state.tasks.extend(items);
        drop(state);
        self.ready.notify_all();
    }

    /// Steals the next task; blocks while the queue is open but empty,
    /// returns `None` once it is closed and drained.
    fn steal(&self) -> Option<T> {
        let mut state = self.state.lock().expect("task queue poisoned");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("task queue poisoned");
        }
    }

    /// Closes the queue: workers drain what is left and exit.
    fn close(&self) {
        let mut state = self.state.lock().expect("task queue poisoned");
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }
}

impl<'e> TaskQueue<WorkItem<'e>> {
    /// Pops the next queued intra-axis job without blocking; leaves session
    /// tasks alone (the coordinator only helps with jobs while it waits on
    /// a fork's latch).
    fn try_steal_job(&self) -> Option<HeapJob> {
        let mut state = self.state.lock().expect("task queue poisoned");
        match state.tasks.front() {
            Some(WorkItem::Job(_)) => match state.tasks.pop_front() {
                Some(WorkItem::Job(job)) => Some(job),
                _ => unreachable!("front of the queue was a job"),
            },
            _ => None,
        }
    }
}

/// A work-stealing pool of scoped worker threads executing [`SessionTask`]s.
///
/// Tasks go into one shared injector queue; idle workers steal from it (the
/// degenerate — and provably balanced — form of work stealing: a single
/// global deque), run the task they won, and send the output back over a
/// channel.  Dynamic stealing rather than static sharding is what keeps all
/// workers busy when sessions finish at different ticks and the active set
/// shrinks unevenly.
///
/// The pool is tied to a [`std::thread::scope`] so tasks may borrow the
/// engine (`Session<'e>` holds `&'e KelleEngine`) without any `'static`
/// gymnastics; dropping the pool closes the queue and the scope joins the
/// workers; the crate's own serving paths also wait for the threads to
/// exit before they return.  A panic inside a task is caught on the worker, carried back,
/// and resurfaced on the coordinating thread by
/// [`execute`](StepExecutor::execute) — a crashed task can therefore never
/// deadlock the coordinator waiting for a result that will not come.
#[derive(Debug)]
pub struct WorkerPool<'scope, 'e> {
    queue: Arc<TaskQueue<WorkItem<'e>>>,
    results: Receiver<Result<TaskOutput<'e>, TaskFailure>>,
    workers: usize,
    threads: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope, 'e: 'scope> WorkerPool<'scope, 'e> {
    /// Spawns `workers` (clamped to at least 1) scoped worker threads.
    pub fn start(scope: &'scope Scope<'scope, '_>, workers: usize) -> Self {
        let workers = workers.max(1);
        let queue = Arc::new(TaskQueue::new());
        let (sender, results) = channel::<Result<TaskOutput<'e>, TaskFailure>>();
        let mut threads = Vec::with_capacity(workers);
        for id in 0..workers {
            let queue: Arc<TaskQueue<WorkItem<'e>>> = Arc::clone(&queue);
            let sender: Sender<Result<TaskOutput<'e>, TaskFailure>> = sender.clone();
            threads.push(scope.spawn(move || {
                while let Some(item) = queue.steal() {
                    match item {
                        WorkItem::Task(task) => {
                            let index = task.index();
                            let output = std::panic::catch_unwind(AssertUnwindSafe(|| task.run()))
                                .map(|mut output| {
                                    output.worker = Some(id);
                                    output
                                })
                                .map_err(|cause| TaskFailure {
                                    index,
                                    message: panic_message(cause.as_ref()),
                                });
                            if sender.send(output).is_err() {
                                // The coordinator is gone; nothing left to
                                // work for.
                                break;
                            }
                        }
                        // Intra-axis job: completion is reported through its
                        // fork's latch, not the result channel.
                        WorkItem::Job(job) => job.run(),
                    }
                }
            }));
        }
        WorkerPool {
            queue,
            results,
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Closes the queue and joins every worker thread (see
    /// [`join_pool_threads`]).
    pub(crate) fn shutdown(mut self) {
        self.queue.close();
        join_pool_threads(std::mem::take(&mut self.threads));
    }

    /// A fork-join [`ParallelRunner`] over this pool's workers, with the
    /// calling thread participating as one extra lane — the intra-session
    /// axis ([`ParallelAxis::Intra`]).
    pub fn runner(&self) -> PoolRunner<'e> {
        PoolRunner {
            queue: Arc::clone(&self.queue),
            lanes: self.workers + 1,
        }
    }
}

/// Fork-join executor for the **intra-session axis**: fans the per-head /
/// per-row-block [`Job`]s of one decode step out across a [`WorkerPool`]'s
/// workers, with the thread calling [`run`](ParallelRunner::run)
/// participating as one lane.
///
/// `run` pushes `jobs[1..]` onto the pool's injector queue, executes
/// `jobs[0]` inline, helps drain remaining jobs while it waits, and blocks
/// on a countdown latch until every job has finished — only then does it
/// return, which is what lets jobs borrow the caller's stack (the
/// [`ParallelRunner`] contract).  A panicking job is resurfaced here after
/// the join, so a crashed head can never leave the pool stuck.
#[derive(Debug)]
pub struct PoolRunner<'e> {
    queue: Arc<TaskQueue<WorkItem<'e>>>,
    lanes: usize,
}

impl<'e> ParallelRunner for PoolRunner<'e> {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn run<'a>(&self, jobs: Vec<Job<'a>>) {
        if jobs.len() <= 1 {
            for job in jobs {
                job();
            }
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len() - 1));
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("jobs.len() > 1");
        let items: Vec<WorkItem<'e>> = jobs
            .map(|job| {
                // SAFETY: `run` does not return until the latch counts every
                // forked job down (even if `first` panics — see below), so
                // the `'a` borrows inside the closure strictly outlive its
                // execution although the queue's type erases them to
                // `'static`.
                let job: Job<'static> =
                    unsafe { std::mem::transmute::<Job<'a>, Job<'static>>(job) };
                WorkItem::Job(HeapJob {
                    job,
                    latch: Arc::clone(&latch),
                })
            })
            .collect();
        self.queue.push_all(items);
        // The first job runs inline: the caller is a full lane, and with
        // more jobs than lanes it keeps helping below.  Its panic (if any)
        // must not unwind past the latch wait — forked jobs still borrow
        // this stack frame.
        let first_result = std::panic::catch_unwind(AssertUnwindSafe(first));
        while let Some(job) = self.queue.try_steal_job() {
            job.run();
        }
        latch.wait();
        if let Err(cause) = first_result {
            std::panic::resume_unwind(cause);
        }
        if let Some(cause) = latch.take_panic() {
            std::panic::resume_unwind(cause);
        }
    }
}

impl<'e> StepExecutor<'e> for WorkerPool<'_, 'e> {
    fn execute(&mut self, tasks: Vec<SessionTask<'e>>) -> Vec<TaskOutput<'e>> {
        // Resurface the first task panic so the failure mode matches
        // single-threaded serving; the full batch has been drained by then,
        // so the pool stays reusable by a caller that catches it.
        self.try_execute(tasks).into_outputs()
    }

    fn execute_axis(
        &mut self,
        tasks: Vec<SessionTask<'e>>,
        axis: ParallelAxis,
    ) -> Vec<TaskOutput<'e>> {
        self.try_execute_axis(tasks, axis).into_outputs()
    }

    fn try_execute(&mut self, tasks: Vec<SessionTask<'e>>) -> TickResult<'e> {
        let count = tasks.len();
        let mut result = TickResult {
            outputs: Vec::with_capacity(count),
            failures: Vec::new(),
        };
        if count == 0 {
            return result;
        }
        self.queue
            .push_all(tasks.into_iter().map(WorkItem::Task).collect());
        // Every task sends exactly one result (panics are caught and carried
        // back as failures), so draining `count` results — even past the
        // first failure — leaves the channel empty and the pool reusable.
        for _ in 0..count {
            match self.results.recv() {
                Ok(Ok(output)) => result.outputs.push(output),
                Ok(Err(failure)) => result.failures.push(failure),
                Err(_) => unreachable!("workers outlive the pool (scoped) and senders persist"),
            }
        }
        result
    }

    fn try_execute_axis(
        &mut self,
        tasks: Vec<SessionTask<'e>>,
        axis: ParallelAxis,
    ) -> TickResult<'e> {
        let intra = match axis {
            ParallelAxis::Session => false,
            ParallelAxis::Intra => true,
            ParallelAxis::Auto => tasks.len() == 1 || tasks.len() * 2 <= self.workers,
        };
        if !intra {
            return self.try_execute(tasks);
        }
        // Narrow batch: decode the sessions one at a time on this thread,
        // each step fanned out per head / per row block across the pool.
        // Running in index order here makes the scheduler's commit-time sort
        // a no-op, exactly like sequential serving.  Each task's panic is
        // caught individually — one crashed session must not drop the
        // not-yet-run sessions queued behind it mid-tick.
        let runner = self.runner();
        run_tasks_caught(tasks, |task| task.run_with(&runner))
    }
}

/// Joins a pool's threads, re-raising a panic that escaped the per-task
/// unwind boundaries.
///
/// Leaving the scope only waits for the thread closures to return, not for
/// the threads to exit.  A thread that has not exited still holds its
/// allocator arena, so the threads of the next pool may map fresh arenas,
/// and a process that serves many batches grows with each such race.  A
/// joined thread has released its arena for reuse.
fn join_pool_threads(threads: Vec<ScopedJoinHandle<'_, ()>>) {
    for thread in threads {
        if let Err(cause) = thread.join() {
            std::panic::resume_unwind(cause);
        }
    }
}

impl Drop for WorkerPool<'_, '_> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// What a sticky shard is asked to do.  Per-shard channels are FIFO, so a
/// `Park` is always observed before the `Step`/`Recall` that targets it.
enum ShardCommand<'e> {
    /// Hold this session resident until it is stepped or recalled.
    Park(usize, Session<'e>),
    /// Decode one step on each of these resident sessions (all pinned to
    /// this shard), replying with a [`StickyStep`] per session.
    Step(Vec<usize>),
    /// Run a moved task (admission prefill, or a chaos-mode decode) and
    /// reply with its [`TaskOutput`].
    Task(SessionTask<'e>),
    /// Hand the resident session back over the dedicated reply channel.
    Recall(usize, Sender<Option<Session<'e>>>),
}

impl std::fmt::Debug for ShardCommand<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCommand::Park(index, _) => f.debug_tuple("Park").field(index).finish(),
            ShardCommand::Step(indices) => f.debug_tuple("Step").field(indices).finish(),
            ShardCommand::Task(task) => f.debug_tuple("Task").field(&task.index()).finish(),
            ShardCommand::Recall(index, _) => f.debug_tuple("Recall").field(index).finish(),
        }
    }
}

/// A shard's answer on the shared reply channel.  Each coordinator call
/// drains exactly the replies it asked for before returning, so step and
/// task replies never interleave across calls.
#[derive(Debug)]
enum ShardReply<'e> {
    Step(Result<StickyStep, TaskFailure>),
    // Boxed: a TaskOutput carries a whole session, dwarfing a StickyStep.
    Task(Box<Result<TaskOutput<'e>, TaskFailure>>),
}

/// A pool of scoped worker threads with **pinned sessions**: request `index`
/// always lives on shard `index % workers`, parked in the worker's local map
/// between ticks, so per-tick traffic to the coordinator is one
/// [`StickyStep`] per session instead of the whole session twice.
///
/// # Determinism
///
/// The commit discipline is untouched: shards compute, the coordinator
/// sorts step results by request index and commits in submission order —
/// the same fan-out/commit cycle as the [`WorkerPool`], minus the session
/// moves.  Pinning also cannot change *what* a step computes: a session is
/// a pure function of its own state, and it is on exactly one thread at a
/// time either way.  Streams are therefore bit-identical to the stealing
/// pool and to sequential serving (`integration_front`, CI-gated at
/// workers 1/2/4).
///
/// Moved tasks — admission prefills, and every decode when chaos is active
/// (checkpoint/replay needs sessions on the coordinator between attempts) —
/// are routed to the owning shard too, so a fleet served through this pool
/// reports [`ParallelMetrics::sessions_migrated`] `== 0`.
///
/// The [`ParallelAxis`] hint is ignored: sticky execution is already
/// session-sharded, and the hint is a wall-clock knob that can never change
/// output bits.
#[derive(Debug)]
pub struct StickyShardPool<'scope, 'e> {
    shards: Vec<Sender<ShardCommand<'e>>>,
    replies: Receiver<ShardReply<'e>>,
    workers: usize,
    threads: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope, 'e: 'scope> StickyShardPool<'scope, 'e> {
    /// Spawns `workers` (clamped to at least 1) scoped shard threads.
    pub fn start(scope: &'scope Scope<'scope, '_>, workers: usize) -> Self {
        let workers = workers.max(1);
        let (reply_sender, replies) = channel::<ShardReply<'e>>();
        let mut shards = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (sender, commands) = channel::<ShardCommand<'e>>();
            let replies = reply_sender.clone();
            threads.push(scope.spawn(move || {
                let mut resident: HashMap<usize, Session<'e>> = HashMap::new();
                while let Ok(command) = commands.recv() {
                    match command {
                        ShardCommand::Park(index, session) => {
                            resident.insert(index, session);
                        }
                        ShardCommand::Step(indices) => {
                            for index in indices {
                                let reply = match resident.remove(&index) {
                                    // The session moves *into* the unwind
                                    // boundary: a panicking step drops it
                                    // here, mirroring a lost stealing-pool
                                    // task.
                                    Some(mut session) => {
                                        std::panic::catch_unwind(AssertUnwindSafe(move || {
                                            let tokens_before = session.position();
                                            let step = session.decode_one();
                                            (session, step, tokens_before)
                                        }))
                                        .map(|(session, step, tokens_before)| {
                                            let position = session.position();
                                            resident.insert(index, session);
                                            StickyStep {
                                                index,
                                                step,
                                                tokens_before,
                                                position,
                                                worker: shard,
                                            }
                                        })
                                        .map_err(
                                            |cause| TaskFailure {
                                                index,
                                                message: panic_message(cause.as_ref()),
                                            },
                                        )
                                    }
                                    None => Err(TaskFailure {
                                        index,
                                        message: format!(
                                            "sticky shard {shard}: request {index} is not parked"
                                        ),
                                    }),
                                };
                                if replies.send(ShardReply::Step(reply)).is_err() {
                                    return;
                                }
                            }
                        }
                        ShardCommand::Task(task) => {
                            let index = task.index();
                            let output = std::panic::catch_unwind(AssertUnwindSafe(|| task.run()))
                                .map(|mut output| {
                                    output.worker = Some(shard);
                                    output
                                })
                                .map_err(|cause| TaskFailure {
                                    index,
                                    message: panic_message(cause.as_ref()),
                                });
                            if replies.send(ShardReply::Task(Box::new(output))).is_err() {
                                return;
                            }
                        }
                        ShardCommand::Recall(index, back) => {
                            // A closed reply channel means the coordinator
                            // gave up mid-recall; keep serving.
                            let _ = back.send(resident.remove(&index));
                        }
                    }
                }
                // Channel closed: the pool was shut down or dropped.  Parked
                // sessions are dropped here, on the shard that owns them.
            }));
            shards.push(sender);
        }
        StickyShardPool {
            shards,
            replies,
            workers,
            threads,
        }
    }

    /// Number of shard threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Closes the shard channels and joins every shard thread (see
    /// [`join_pool_threads`]).
    pub(crate) fn shutdown(self) {
        let StickyShardPool {
            shards, threads, ..
        } = self;
        drop(shards);
        join_pool_threads(threads);
    }

    /// The shard that owns request `index` — the pinning function.
    fn shard_of(&self, index: usize) -> usize {
        index % self.workers
    }

    fn send(&self, shard: usize, command: ShardCommand<'e>) {
        self.shards[shard]
            .send(command)
            .expect("shard threads outlive the pool (scoped)");
    }

    /// Drains exactly `count` task replies (the step variant cannot appear:
    /// every call drains its own replies fully before returning).
    fn drain_task_replies(&self, count: usize) -> TickResult<'e> {
        let mut result = TickResult {
            outputs: Vec::with_capacity(count),
            failures: Vec::new(),
        };
        for _ in 0..count {
            match self.replies.recv() {
                Ok(ShardReply::Task(reply)) => match *reply {
                    Ok(output) => result.outputs.push(output),
                    Err(failure) => result.failures.push(failure),
                },
                Ok(ShardReply::Step(_)) => {
                    unreachable!("step replies are drained by the call that requested them")
                }
                Err(_) => unreachable!("shards outlive the pool (scoped) and senders persist"),
            }
        }
        result
    }
}

impl<'e> StepExecutor<'e> for StickyShardPool<'_, 'e> {
    fn execute(&mut self, tasks: Vec<SessionTask<'e>>) -> Vec<TaskOutput<'e>> {
        self.try_execute(tasks).into_outputs()
    }

    fn try_execute(&mut self, tasks: Vec<SessionTask<'e>>) -> TickResult<'e> {
        let count = tasks.len();
        for task in tasks {
            let shard = self.shard_of(task.index());
            self.send(shard, ShardCommand::Task(task));
        }
        self.drain_task_replies(count)
    }

    fn is_sticky(&self) -> bool {
        true
    }

    fn park(&mut self, index: usize, session: Session<'e>) {
        let shard = self.shard_of(index);
        self.send(shard, ShardCommand::Park(index, session));
    }

    fn step_parked(&mut self, indices: &[usize]) -> StickyOutcome {
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.workers];
        for &index in indices {
            per_shard[self.shard_of(index)].push(index);
        }
        for (shard, mine) in per_shard.into_iter().enumerate() {
            if !mine.is_empty() {
                self.send(shard, ShardCommand::Step(mine));
            }
        }
        let mut outcome = StickyOutcome {
            steps: Vec::with_capacity(indices.len()),
            failures: Vec::new(),
        };
        for _ in 0..indices.len() {
            match self.replies.recv() {
                Ok(ShardReply::Step(Ok(step))) => outcome.steps.push(step),
                Ok(ShardReply::Step(Err(failure))) => outcome.failures.push(failure),
                Ok(ShardReply::Task(_)) => {
                    unreachable!("task replies are drained by the call that requested them")
                }
                Err(_) => unreachable!("shards outlive the pool (scoped) and senders persist"),
            }
        }
        outcome
    }

    fn recall(&mut self, index: usize) -> Option<Session<'e>> {
        let shard = self.shard_of(index);
        let (back, session) = channel();
        self.send(shard, ShardCommand::Recall(index, back));
        session
            .recv()
            .expect("the shard answers every recall before exiting")
    }
}

/// Serves `requests` through a [`BatchScheduler`] whose per-session compute
/// fans out across `workers` threads — the driver behind
/// [`KelleEngine::serve`] with [`crate::engine::ServeOptions::parallel`].
///
/// `on_token` runs on the coordinating thread and observes `(request,
/// token)` pairs in exactly the single-threaded order.  The outcome is
/// bit-identical to
/// sequential serving with the same scheduler config for every worker
/// count.
pub fn serve_batch_parallel(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
    workers: usize,
    on_token: impl FnMut(usize, usize),
) -> BatchOutcome {
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::start(scope, workers);
        let mut scheduler = BatchScheduler::with_config(engine, config);
        for request in requests {
            scheduler.submit_with(request, &mut pool);
        }
        let outcome = scheduler.run_to_completion_streaming_with(&mut pool, on_token);
        pool.shutdown();
        outcome
    })
}

/// Fallible [`serve_batch_parallel`]: an unrecoverable worker loss (a task
/// panic the chaos replay budget could not absorb) surfaces as
/// [`ServeError::WorkerLost`] instead of unwinding the coordinator, so
/// callers can distinguish infrastructure failure from request failure.
pub fn try_serve_batch_parallel(
    engine: &KelleEngine,
    requests: Vec<ServeRequest>,
    config: SchedulerConfig,
    workers: usize,
    on_token: impl FnMut(usize, usize),
) -> Result<BatchOutcome, ServeError> {
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::start(scope, workers);
        let mut scheduler = BatchScheduler::with_config(engine, config);
        for request in requests {
            scheduler.submit_with(request, &mut pool);
        }
        let outcome = scheduler.try_run_to_completion_streaming_with(&mut pool, on_token);
        pool.shutdown();
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> KelleEngine {
        KelleEngine::new(EngineConfig::default())
    }

    fn requests() -> Vec<ServeRequest> {
        vec![
            ServeRequest::new(vec![1, 2, 3, 4], 3),
            ServeRequest::new(vec![5, 6], 5),
            ServeRequest::new(vec![7, 8, 9], 2),
        ]
    }

    #[test]
    fn pool_matches_inline_execution_for_any_worker_count() {
        let engine = engine();
        let baseline = engine
            .serve(requests(), crate::engine::ServeOptions::new())
            .unwrap();
        for workers in [1, 2, 4] {
            let parallel = serve_batch_parallel(
                &engine,
                requests(),
                SchedulerConfig::default(),
                workers,
                |_, _| {},
            );
            for (a, b) in baseline.outcomes.iter().zip(parallel.outcomes.iter()) {
                assert_eq!(a.generated, b.generated, "workers={workers}");
                assert_eq!(a.faults, b.faults, "workers={workers}");
            }
            assert_eq!(baseline.stats, parallel.stats, "workers={workers}");
            assert_eq!(
                baseline.contention, parallel.contention,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn streaming_order_is_the_sequential_order() {
        let engine = engine();
        let mut sequential = Vec::new();
        let mut sink = |request: usize, token: usize| sequential.push((request, token));
        engine
            .serve(
                requests(),
                crate::engine::ServeOptions::new().streaming(&mut sink),
            )
            .unwrap();
        let mut parallel = Vec::new();
        serve_batch_parallel(
            &engine,
            requests(),
            SchedulerConfig::default(),
            4,
            |request, token| parallel.push((request, token)),
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn every_axis_matches_inline_serving_bitwise() {
        let engine = engine();
        let baseline = engine
            .serve(requests(), crate::engine::ServeOptions::new())
            .unwrap();
        for axis in [
            ParallelAxis::Session,
            ParallelAxis::Intra,
            ParallelAxis::Auto,
        ] {
            for workers in [1, 2, 4] {
                let config = SchedulerConfig::default().with_parallel_axis(axis);
                let parallel =
                    serve_batch_parallel(&engine, requests(), config, workers, |_, _| {});
                for (a, b) in baseline.outcomes.iter().zip(parallel.outcomes.iter()) {
                    assert_eq!(a.generated, b.generated, "axis={axis:?} workers={workers}");
                    assert_eq!(a.faults, b.faults, "axis={axis:?} workers={workers}");
                }
                assert_eq!(
                    baseline.stats, parallel.stats,
                    "axis={axis:?} workers={workers}"
                );
                assert_eq!(
                    baseline.contention, parallel.contention,
                    "axis={axis:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn pool_runner_joins_before_returning_and_stays_reusable_after_a_panic() {
        std::thread::scope(|scope| {
            let pool: WorkerPool<'_, '_> = WorkerPool::start(scope, 2);
            let runner = pool.runner();
            assert_eq!(runner.lanes(), 3);
            // Jobs may borrow the caller's stack: disjoint chunks of a local.
            let mut data = vec![0u32; 8];
            let jobs: Vec<Job<'_>> = data
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    let job: Job<'_> = Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = (i * 2 + j) as u32;
                        }
                    });
                    job
                })
                .collect();
            runner.run(jobs);
            assert_eq!(data, (0..8).collect::<Vec<u32>>());
            // A panicking forked job resurfaces on the caller after the
            // join...
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                runner.run(vec![
                    Box::new(|| {}) as Job<'_>,
                    Box::new(|| panic!("boom")) as Job<'_>,
                ]);
            }));
            assert!(result.is_err(), "the job panic must reach the caller");
            // ...and the pool keeps serving the next fork.
            let counter = AtomicUsize::new(0);
            runner.run(
                (0..4)
                    .map(|_| {
                        let job: Job<'_> = Box::new(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                        job
                    })
                    .collect(),
            );
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        });
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        std::thread::scope(|scope| {
            let pool: WorkerPool<'_, '_> = WorkerPool::start(scope, 0);
            assert_eq!(pool.workers(), 1);
        });
    }

    #[test]
    fn empty_task_batch_is_a_no_op() {
        std::thread::scope(|scope| {
            let mut pool: WorkerPool<'_, '_> = WorkerPool::start(scope, 2);
            assert!(StepExecutor::execute(&mut pool, Vec::new()).is_empty());
        });
    }

    #[test]
    fn coordinator_unwind_mid_tick_joins_cleanly() {
        // Regression: a coordinator that unwinds mid-tick — after fanning
        // tasks out but before draining results — must still join the pool
        // cleanly.  Drop closes the queue, the workers drain the in-flight
        // task (their send fails once the receiver is gone) and exit; the
        // scope joins instead of hanging.
        let engine = engine();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let pool: WorkerPool<'_, '_> = WorkerPool::start(scope, 2);
                let mut session = engine.open_session();
                session.prefill(&[1, 2, 3]);
                pool.queue
                    .push_all(vec![WorkItem::Task(SessionTask::decode(0, session))]);
                panic!("coordinator unwinds mid-tick");
            });
        }));
        assert!(result.is_err(), "the coordinator panic must propagate");
        // Reaching this assertion at all is the point: the scope returned.
    }

    #[test]
    fn intra_axis_failures_spare_queued_sessions() {
        // Regression for the intra-axis fan-out: a panicking session must
        // not take the sessions queued behind it down with it mid-map.
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            // An un-prefilled session panics inside decode_one.
            let broken = engine.open_session();
            let mut healthy = engine.open_session();
            healthy.prefill(&[1, 2, 3]);
            let tasks = vec![
                SessionTask::decode(0, broken),
                SessionTask::decode(1, healthy),
            ];
            let result = pool.try_execute_axis(tasks, ParallelAxis::Intra);
            assert_eq!(result.outputs.len(), 1, "the healthy session survives");
            assert_eq!(result.outputs[0].index(), 1);
            assert_eq!(result.failures.len(), 1);
            assert_eq!(result.failures[0].index(), 0);
        });
    }

    #[test]
    fn try_execute_partitions_outputs_and_failures() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let broken = engine.open_session();
            let mut healthy = engine.open_session();
            healthy.prefill(&[4, 5, 6]);
            let tasks = vec![
                SessionTask::decode(3, healthy),
                SessionTask::decode(9, broken),
            ];
            let result = pool.try_execute(tasks);
            assert_eq!(result.outputs.len(), 1);
            assert_eq!(result.outputs[0].index(), 3);
            assert_eq!(result.failures.len(), 1);
            assert_eq!(result.failures[0].index(), 9);
            // The channel was fully drained: the pool serves the next batch.
            let mut next = engine.open_session();
            next.prefill(&[7, 8]);
            let outputs = pool.execute(vec![SessionTask::decode(0, next)]);
            assert_eq!(outputs.len(), 1);
        });
    }

    #[test]
    fn sabotaged_task_fails_with_the_chaos_message() {
        let engine = engine();
        let mut session = engine.open_session();
        session.prefill(&[1, 2, 3]);
        let mut task = SessionTask::decode(5, session);
        task.arm_sabotage();
        let result = InlineExecutor.try_execute(vec![task]);
        assert!(result.outputs.is_empty());
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].index(), 5);
        assert!(
            result.failures[0].message().contains("chaos"),
            "message: {}",
            result.failures[0].message()
        );
    }

    #[test]
    fn sticky_pool_steps_parked_sessions_without_moving_them() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = StickyShardPool::start(scope, 2);
            assert!(pool.is_sticky());
            assert_eq!(pool.workers(), 2);
            for index in 0..3 {
                let mut session = engine.open_session();
                session.prefill(&[1, 2, 3 + index]);
                pool.park(index, session);
            }
            let indices = [0, 1, 2];
            let outcome = pool.step_parked(&indices);
            assert!(outcome.failures.is_empty());
            assert_eq!(outcome.steps.len(), 3);
            let mut steps = outcome.steps;
            steps.sort_by_key(|s| s.index);
            for (i, step) in steps.iter().enumerate() {
                assert_eq!(step.index, i);
                assert_eq!(step.tokens_before, 3);
                assert_eq!(step.position, 4);
                // Pinned: the shard is always index % workers.
                assert_eq!(step.worker, i % 2);
            }
            // The sessions stayed resident: a second tick steps them again.
            let outcome = pool.step_parked(&indices);
            assert_eq!(outcome.steps.len(), 3);
            assert!(outcome.steps.iter().all(|s| s.tokens_before == 4));
            // Recall hands the stepped session back; recalling twice (or an
            // unknown index) finds nothing.
            let session = pool.recall(1).expect("request 1 is parked");
            assert_eq!(session.position(), 5);
            assert!(pool.recall(1).is_none());
            assert!(pool.recall(99).is_none());
        });
    }

    #[test]
    fn sticky_pool_matches_inline_decode_bitwise() {
        let engine = engine();
        let mut reference = engine.open_session();
        reference.prefill(&[1, 2, 3]);
        std::thread::scope(|scope| {
            let mut pool = StickyShardPool::start(scope, 3);
            let mut session = engine.open_session();
            session.prefill(&[1, 2, 3]);
            pool.park(7, session);
            for _ in 0..5 {
                let expected = reference.decode_one();
                let outcome = pool.step_parked(&[7]);
                assert!(outcome.failures.is_empty());
                assert_eq!(outcome.steps.len(), 1);
                let step = &outcome.steps[0];
                assert_eq!(step.step.token, expected.token);
                assert_eq!(step.worker, 7 % 3);
            }
        });
    }

    #[test]
    fn sticky_step_panic_loses_only_that_session() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = StickyShardPool::start(scope, 2);
            // An un-prefilled session panics inside decode_one.
            pool.park(0, engine.open_session());
            let mut healthy = engine.open_session();
            healthy.prefill(&[4, 5, 6]);
            pool.park(1, healthy);
            let outcome = pool.step_parked(&[0, 1]);
            assert_eq!(outcome.steps.len(), 1, "the healthy session survives");
            assert_eq!(outcome.steps[0].index, 1);
            assert_eq!(outcome.failures.len(), 1);
            assert_eq!(outcome.failures[0].index(), 0);
            // The crashed session is gone from its shard...
            assert!(pool.recall(0).is_none());
            // ...and the survivor keeps ticking.
            let outcome = pool.step_parked(&[1]);
            assert_eq!(outcome.steps.len(), 1);
        });
    }

    #[test]
    fn sticky_pool_runs_moved_tasks_on_the_owning_shard() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = StickyShardPool::start(scope, 2);
            let mut a = engine.open_session();
            a.prefill(&[1, 2]);
            let mut b = engine.open_session();
            b.prefill(&[3, 4]);
            let outputs = pool.execute(vec![SessionTask::decode(4, a), SessionTask::decode(5, b)]);
            assert_eq!(outputs.len(), 2);
            for output in &outputs {
                assert_eq!(
                    output.worker(),
                    Some(output.index() % 2),
                    "moved tasks stay pinned to the owning shard"
                );
            }
        });
    }

    #[test]
    fn stealing_pool_stamps_the_worker_that_ran_each_task() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let mut session = engine.open_session();
            session.prefill(&[1, 2, 3]);
            let outputs = pool.execute(vec![SessionTask::decode(0, session)]);
            assert_eq!(outputs.len(), 1);
            assert!(
                matches!(outputs[0].worker(), Some(w) if w < 2),
                "stealing-pool outputs carry the worker id"
            );
        });
        // Inline execution never crosses a thread.
        let mut session = engine.open_session();
        session.prefill(&[1, 2, 3]);
        let outputs = InlineExecutor.execute(vec![SessionTask::decode(0, session)]);
        assert_eq!(outputs[0].worker(), None);
    }

    #[test]
    fn parallel_metrics_crossings_per_tick_handles_zero_ticks() {
        let zero = ParallelMetrics::default();
        assert_eq!(zero.crossings_per_tick(), 0.0);
        let metrics = ParallelMetrics {
            queue_crossings: 12,
            sessions_migrated: 3,
            ticks: 4,
        };
        assert_eq!(metrics.crossings_per_tick(), 3.0);
    }

    #[test]
    fn worker_panics_propagate_and_leave_the_pool_reusable() {
        let engine = engine();
        std::thread::scope(|scope| {
            let mut pool = WorkerPool::start(scope, 2);
            let mut session = engine.open_session();
            session.prefill(&[1, 2, 3]);
            // An un-prefilled session panics inside decode_one; the pool
            // must resurface that panic instead of deadlocking.
            let broken = engine.open_session();
            let tasks = vec![
                SessionTask::decode(0, session),
                SessionTask::decode(1, broken),
            ];
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| pool.execute(tasks)));
            assert!(result.is_err(), "the task panic must reach the caller");
            // The failed batch was fully drained: a fresh batch on the same
            // pool sees only its own outputs.
            let mut healthy = engine.open_session();
            healthy.prefill(&[4, 5, 6]);
            let outputs = pool.execute(vec![SessionTask::decode(7, healthy)]);
            assert_eq!(outputs.len(), 1);
            assert_eq!(outputs[0].index(), 7);
        });
    }
}
