//! Non-blocking serving front-end: `submit`/`poll` sessions with
//! per-request token streams, backpressure, and worker-pinned execution.
//!
//! [`KelleEngine::front`] opens a [`ServingFront`] over the engine's
//! [`BatchScheduler`]: callers [`submit`](ServingFront::submit) requests
//! without blocking and read tokens back through bounded per-session
//! [`TokenStream`]s, while the scheduler's admission queue, deadlines,
//! [`cancel`](ServingFront::cancel) and [`drain`](ServingFront::drain) are
//! all first-class on the handle.  Two executor protocols drive the decode
//! ticks:
//!
//! * [`ExecutorKind::Sticky`] (the default) pins every session to a worker
//!   shard ([`StickyShardPool`]): the session object is parked on its shard
//!   and only per-tick step results cross threads to the coordinator
//!   commit, so a fleet of long-lived sessions generates O(steps) queue
//!   traffic instead of O(steps × session moves);
//! * [`ExecutorKind::Stealing`] round-trips whole sessions through the
//!   shared task queue every tick ([`WorkerPool`]) — the PR-5 protocol,
//!   better when per-tick work is heavily skewed.
//!
//! # Cooperative pumping
//!
//! The front is deliberately runtime-free: there is no background thread
//! and nothing happens between calls.  Every [`recv`](ServingFront::recv),
//! [`submit_blocking`](ServingFront::submit_blocking),
//! [`pump`](ServingFront::pump) or [`drain`](ServingFront::drain) advances
//! the scheduler by whole ticks on the calling thread.  That is what makes
//! the subsystem deterministic: ticks are totally ordered, commits happen
//! in submission order on one thread, and the interleaving of `submit` /
//! `poll` calls can change *when* tokens are produced but never *which*
//! tokens.
//!
//! # Backpressure
//!
//! Two independent valves:
//!
//! * **Admission**: [`FrontConfig::with_queue_capacity`] bounds the waiting
//!   queue; a full queue rejects [`submit`](ServingFront::submit) with the
//!   typed [`SubmitError::QueueFull`] (callers that prefer to wait use
//!   [`submit_blocking`](ServingFront::submit_blocking), which pumps ticks
//!   until a slot frees or progress becomes impossible).
//! * **Streams**: [`FrontConfig::with_stream_capacity`] bounds each token
//!   buffer; a session whose consumer stopped polling is *paused* — skipped
//!   by decode fan-out, its parked KV untouched, consuming zero queue
//!   traffic — and resumes when the consumer catches up.  Pausing changes
//!   scheduling, never token bits.
//!
//! # Determinism
//!
//! For a fixed submission sequence, the committed token streams,
//! probability bits and fault statistics are bit-identical to the
//! synchronous parallel [`KelleEngine::serve`] path for all five
//! cache policies, both [`ParallelAxis`](crate::parallel::ParallelAxis)
//! modes and any worker count, with either executor — gated by
//! `tests/integration_front.rs`.
//!
//! ```
//! use kelle::front::{FrontConfig, StreamPoll};
//! use kelle::{EngineConfig, KelleEngine, ServeRequest};
//!
//! let engine = KelleEngine::new(EngineConfig::default());
//! let (tokens, outcome) = engine.front(FrontConfig::default(), |front| {
//!     let stream = front
//!         .submit(ServeRequest::new(vec![1, 2, 3], 4))
//!         .expect("unbounded queue admits everything");
//!     let mut tokens = Vec::new();
//!     loop {
//!         match front.recv(&stream) {
//!             StreamPoll::Token(token) => tokens.push(token),
//!             StreamPoll::Finished { .. } => break,
//!             StreamPoll::Pending => unreachable!("recv pumps until terminal"),
//!         }
//!     }
//!     tokens
//! });
//! assert_eq!(tokens.len(), 4);
//! assert_eq!(outcome.outcomes[0].generated, tokens);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chaos::{ServeError, ShedReason};
use crate::engine::KelleEngine;
use crate::parallel::{StepExecutor, StickyShardPool, WorkerPool};
use crate::scheduler::{BatchOutcome, BatchScheduler, SchedulerConfig, StepEvent};
use crate::session::ServeRequest;

/// Which executor protocol drives the front-end's decode ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Pin sessions to worker shards ([`StickyShardPool`]); only per-tick
    /// step results cross threads.  The right default for long-lived
    /// session fleets.
    #[default]
    Sticky,
    /// Round-trip whole sessions through the shared task queue every tick
    /// ([`WorkerPool`]); work-stealing balances skewed per-tick load.
    Stealing,
}

/// Configuration for [`KelleEngine::front`].
#[derive(Debug, Clone, Default)]
pub struct FrontConfig {
    /// Scheduler configuration (capacity, admission policy, tiering,
    /// chaos, parallel axis) the front drives.
    pub scheduler: SchedulerConfig,
    /// Executor protocol for decode ticks.
    pub executor: ExecutorKind,
    /// Admission backpressure: maximum waiting (queued, unadmitted)
    /// requests before [`ServingFront::submit`] rejects with
    /// [`SubmitError::QueueFull`].  `None` (default) never rejects.
    pub queue_capacity: Option<usize>,
    /// Stream backpressure: maximum undelivered tokens buffered per
    /// session before its decode is paused.  `None` (default) never
    /// pauses.
    pub stream_capacity: Option<usize>,
}

impl FrontConfig {
    /// Default configuration: sticky executor, unbounded queue and streams,
    /// default scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the executor protocol.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Bounds the admission queue (see [`FrontConfig::queue_capacity`]).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Bounds each per-session token buffer (see
    /// [`FrontConfig::stream_capacity`]).
    pub fn with_stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = Some(capacity);
        self
    }
}

/// Why [`ServingFront::submit`] rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at [`FrontConfig::queue_capacity`]; retry
    /// after polling some streams, or use
    /// [`submit_blocking`](ServingFront::submit_blocking).
    QueueFull {
        /// Requests currently waiting for admission.
        waiting: usize,
    },
    /// [`drain`](ServingFront::drain) already stopped admission; draining
    /// is terminal.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { waiting } => {
                write!(f, "admission queue is full ({waiting} requests waiting)")
            }
            SubmitError::Draining => write!(f, "the front-end is draining; admission is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One non-blocking read from a [`TokenStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamPoll {
    /// No token buffered yet; pump the front (or use
    /// [`recv`](ServingFront::recv)) to make progress.
    Pending,
    /// The next generated token, in stream order.
    Token(usize),
    /// The stream is over: every token has been delivered.
    Finished {
        /// `None` for natural completion; `Some` when the request was shed
        /// (deadline, queue timeout, cancellation, drain, worker loss) —
        /// already-delivered tokens are the kept partial output.
        shed: Option<ShedReason>,
    },
}

#[derive(Debug, Default)]
struct StreamState {
    tokens: VecDeque<usize>,
    /// `Some(None)` = finished; `Some(Some(reason))` = shed.  Buffered
    /// tokens are always delivered before the terminal state.
    terminal: Option<Option<ShedReason>>,
}

/// Caller's handle to one request's token stream — a bounded buffer the
/// front fills as the request's decode ticks commit.
///
/// Reads never block: [`try_next`](TokenStream::try_next) pops a buffered
/// token or reports [`StreamPoll::Pending`];
/// [`ServingFront::recv`] pumps scheduler ticks until this stream
/// progresses.  Dropping the handle does not cancel the request — use
/// [`ServingFront::cancel`].
#[derive(Debug, Clone)]
pub struct TokenStream {
    request: usize,
    shared: Arc<Mutex<StreamState>>,
}

impl TokenStream {
    /// The scheduler request index this stream belongs to — the same index
    /// [`BatchOutcome::outcomes`] uses, and the argument to
    /// [`ServingFront::cancel`].
    pub fn request(&self) -> usize {
        self.request
    }

    /// Pops the next buffered token without pumping the scheduler.
    pub fn try_next(&self) -> StreamPoll {
        let mut state = self.shared.lock();
        if let Some(token) = state.tokens.pop_front() {
            return StreamPoll::Token(token);
        }
        match state.terminal {
            Some(shed) => StreamPoll::Finished { shed },
            None => StreamPoll::Pending,
        }
    }

    /// Tokens currently buffered (generated but not yet read).
    pub fn buffered(&self) -> usize {
        self.shared.lock().tokens.len()
    }

    /// Whether the stream reached its terminal state (buffered tokens may
    /// still be unread).
    pub fn is_terminated(&self) -> bool {
        self.shared.lock().terminal.is_some()
    }
}

/// The live serving front-end inside [`KelleEngine::front`] — submit
/// requests, poll streams, cancel, drain.  See the [module docs](crate::front)
/// for the pumping and backpressure model.
pub struct ServingFront<'x, 'e> {
    scheduler: BatchScheduler<'e>,
    executor: &'x mut dyn StepExecutor<'e>,
    streams: Vec<Arc<Mutex<StreamState>>>,
    queue_capacity: Option<usize>,
    stream_capacity: Option<usize>,
    worker_losses: Vec<ServeError>,
}

impl std::fmt::Debug for ServingFront<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingFront")
            .field("submitted", &self.streams.len())
            .field("active", &self.scheduler.active())
            .field("waiting", &self.scheduler.waiting())
            .field("worker_losses", &self.worker_losses.len())
            .finish()
    }
}

impl<'x, 'e> ServingFront<'x, 'e> {
    fn new(
        scheduler: BatchScheduler<'e>,
        executor: &'x mut dyn StepExecutor<'e>,
        queue_capacity: Option<usize>,
        stream_capacity: Option<usize>,
    ) -> Self {
        Self {
            scheduler,
            executor,
            streams: Vec::new(),
            queue_capacity,
            stream_capacity,
            worker_losses: Vec::new(),
        }
    }

    /// Submits a request without blocking.  The request is admitted
    /// (pre-filled through the executor) immediately if capacity allows,
    /// else it queues; either way the returned [`TokenStream`] will carry
    /// its tokens.  Rejects with [`SubmitError::QueueFull`] when the
    /// waiting queue is at [`FrontConfig::queue_capacity`], and
    /// [`SubmitError::Draining`] after [`drain`](ServingFront::drain).
    pub fn submit(&mut self, request: ServeRequest) -> Result<TokenStream, SubmitError> {
        if self.scheduler.is_draining() {
            return Err(SubmitError::Draining);
        }
        let waiting = self.scheduler.waiting();
        if self.queue_capacity.is_some_and(|cap| waiting >= cap) {
            return Err(SubmitError::QueueFull { waiting });
        }
        let index = self.scheduler.submit_with(request, self.executor);
        debug_assert_eq!(
            index,
            self.streams.len(),
            "front registers every submission"
        );
        let shared = Arc::new(Mutex::new(StreamState::default()));
        self.streams.push(Arc::clone(&shared));
        self.deliver_sheds();
        Ok(TokenStream {
            request: index,
            shared,
        })
    }

    /// [`submit`](ServingFront::submit), pumping scheduler ticks while the
    /// queue is full.  Returns [`SubmitError::QueueFull`] only when no
    /// further progress is possible without caller action (every active
    /// stream is paused at its capacity), and
    /// [`SubmitError::Draining`] once draining.
    pub fn submit_blocking(&mut self, request: ServeRequest) -> Result<TokenStream, SubmitError> {
        loop {
            if self.scheduler.is_draining() {
                return Err(SubmitError::Draining);
            }
            let waiting = self.scheduler.waiting();
            if self.queue_capacity.is_some_and(|cap| waiting >= cap) {
                if !self.pump() {
                    return Err(SubmitError::QueueFull { waiting });
                }
                continue;
            }
            return self.submit(request);
        }
    }

    /// Runs one cooperative scheduler tick: applies stream backpressure,
    /// steps every unpaused active session through the executor, and
    /// delivers the committed tokens and sheds into their streams.  Returns
    /// whether the call made progress (delivered an event or changed
    /// admission state); `false` means pumping again is futile until the
    /// caller reads a stream or submits/cancels.
    ///
    /// An unrecoverable worker loss during the tick sheds the lost request
    /// (its stream terminates with [`ShedReason::WorkerLost`]) and is
    /// recorded in [`worker_losses`](ServingFront::worker_losses) — the
    /// front itself keeps serving.
    pub fn pump(&mut self) -> bool {
        self.apply_backpressure();
        if self.scheduler.is_idle() {
            return false;
        }
        let before = (self.scheduler.active(), self.scheduler.waiting());
        let mut delivered = 0usize;
        match self.scheduler.try_step_with(self.executor) {
            Ok(events) => {
                delivered += events.len();
                self.deliver(&events);
            }
            Err(error) => {
                self.worker_losses.push(error);
            }
        }
        delivered += self.deliver_sheds();
        let after = (self.scheduler.active(), self.scheduler.waiting());
        delivered > 0 || before != after
    }

    /// Reads the next event from `stream`, pumping scheduler ticks until it
    /// progresses.  Returns [`StreamPoll::Pending`] only if the front can
    /// make no progress at all (which cannot happen for an unpaused live
    /// stream: its request either steps or sheds).
    pub fn recv(&mut self, stream: &TokenStream) -> StreamPoll {
        loop {
            match stream.try_next() {
                StreamPoll::Pending => {
                    if !self.pump() {
                        return StreamPoll::Pending;
                    }
                }
                poll => return poll,
            }
        }
    }

    /// Cancels a request mid-stream through the executor (a parked session
    /// is recalled so its partial turn finalizes for real).  The stream
    /// terminates with [`ShedReason::Cancelled`]; tokens generated so far
    /// stay buffered and in the final outcome.  Returns `false` when the
    /// request is unknown or already finished.
    pub fn cancel(&mut self, request: usize) -> bool {
        let cancelled = self.scheduler.cancel_with(request, self.executor);
        self.deliver_sheds();
        cancelled
    }

    /// Gracefully drains the front: admission closes (terminally), every
    /// waiting request's stream terminates with [`ShedReason::Drained`],
    /// paused streams are resumed, and the active sessions are pumped to
    /// completion.  On return the scheduler is idle; worker losses along
    /// the way are absorbed into
    /// [`worker_losses`](ServingFront::worker_losses).
    pub fn drain(&mut self) {
        self.scheduler.begin_drain();
        self.deliver_sheds();
        while !self.scheduler.is_idle() {
            self.pump();
        }
    }

    /// The scheduler behind the front — queue depths, contention and
    /// [`parallel_metrics`](BatchScheduler::parallel_metrics) are all
    /// observable mid-serve.
    pub fn scheduler(&self) -> &BatchScheduler<'e> {
        &self.scheduler
    }

    /// Unrecoverable worker losses absorbed so far (each one shed its
    /// request and terminated that stream with [`ShedReason::WorkerLost`]).
    pub fn worker_losses(&self) -> &[ServeError] {
        &self.worker_losses
    }

    /// Pauses streams at their buffer capacity, resumes the ones below it.
    /// Skipped entirely while draining (drain must not stall).
    fn apply_backpressure(&mut self) {
        let Some(capacity) = self.stream_capacity else {
            return;
        };
        if self.scheduler.is_draining() {
            return;
        }
        for (index, shared) in self.streams.iter().enumerate() {
            let state = shared.lock();
            if state.terminal.is_some() {
                continue;
            }
            let paused = state.tokens.len() >= capacity;
            drop(state);
            self.scheduler.set_paused(index, paused);
        }
    }

    fn deliver(&mut self, events: &[StepEvent]) {
        for event in events {
            let mut state = self.streams[event.request].lock();
            state.tokens.push_back(event.token);
            if event.finished {
                state.terminal = Some(None);
            }
        }
    }

    fn deliver_sheds(&mut self) -> usize {
        let sheds = self.scheduler.take_shed_events();
        let count = sheds.len();
        for (request, reason) in sheds {
            let mut state = self.streams[request].lock();
            if state.terminal.is_none() {
                state.terminal = Some(Some(reason));
            }
        }
        count
    }

    /// Finishes the front after the serve closure returned: resumes every
    /// paused stream, pumps the remaining work to completion and collects
    /// the batch outcome.
    fn into_outcome(mut self) -> BatchOutcome {
        for index in 0..self.streams.len() {
            self.scheduler.set_paused(index, false);
        }
        while !self.scheduler.is_idle() {
            match self.scheduler.try_step_with(self.executor) {
                Ok(events) => self.deliver(&events),
                Err(error) => self.worker_losses.push(error),
            }
            self.deliver_sheds();
        }
        self.scheduler
            .finish()
            .expect("scheduler is idle, finish cannot fail")
    }
}

impl KelleEngine {
    /// Opens a [`ServingFront`] over this engine and hands it to `serve`.
    ///
    /// The executor ([`FrontConfig::executor`]) runs on
    /// [`workers`](crate::engine::EngineBuilder::workers) scoped threads for
    /// the duration of the call.  When `serve` returns, any requests still
    /// in flight are pumped to completion (paused streams are resumed), and
    /// the final [`BatchOutcome`] — bit-identical to
    /// the parallel [`serve`](KelleEngine::serve) path
    /// over the same submission sequence — is returned alongside the
    /// closure's result.
    ///
    /// See the [module docs](crate::front) for an end-to-end example.
    pub fn front<R>(
        &self,
        config: FrontConfig,
        serve: impl FnOnce(&mut ServingFront<'_, '_>) -> R,
    ) -> (R, BatchOutcome) {
        let FrontConfig {
            scheduler,
            executor,
            queue_capacity,
            stream_capacity,
        } = config;
        let workers = self.config().workers;
        std::thread::scope(|scope| {
            let scheduler = BatchScheduler::with_config(self, scheduler);
            match executor {
                ExecutorKind::Sticky => {
                    let mut pool = StickyShardPool::start(scope, workers);
                    let mut front =
                        ServingFront::new(scheduler, &mut pool, queue_capacity, stream_capacity);
                    let result = serve(&mut front);
                    let outcome = front.into_outcome();
                    pool.shutdown();
                    (result, outcome)
                }
                ExecutorKind::Stealing => {
                    let mut pool = WorkerPool::start(scope, workers);
                    let mut front =
                        ServingFront::new(scheduler, &mut pool, queue_capacity, stream_capacity);
                    let result = serve(&mut front);
                    let outcome = front.into_outcome();
                    pool.shutdown();
                    (result, outcome)
                }
            }
        })
    }
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
    fn front_streams_match_the_synchronous_batch() {
        let engine = engine();
        let baseline = engine
            .serve(requests(), crate::engine::ServeOptions::new())
            .unwrap();
        for kind in [ExecutorKind::Sticky, ExecutorKind::Stealing] {
            let (streams, outcome) =
                engine.front(FrontConfig::default().with_executor(kind), |front| {
                    let handles: Vec<TokenStream> = requests()
                        .into_iter()
                        .map(|request| front.submit(request).expect("unbounded queue"))
                        .collect();
                    handles
                        .iter()
                        .map(|stream| {
                            let mut tokens = Vec::new();
                            loop {
                                match front.recv(stream) {
                                    StreamPoll::Token(token) => tokens.push(token),
                                    StreamPoll::Finished { shed } => {
                                        assert_eq!(shed, None);
                                        break;
                                    }
                                    StreamPoll::Pending => unreachable!("live streams progress"),
                                }
                            }
                            tokens
                        })
                        .collect::<Vec<_>>()
                });
            for (index, (tokens, reference)) in
                streams.iter().zip(baseline.outcomes.iter()).enumerate()
            {
                assert_eq!(tokens, &reference.generated, "request {index} ({kind:?})");
            }
            assert_eq!(outcome.stats, baseline.stats, "{kind:?}");
        }
    }

    #[test]
    fn queue_full_is_typed_and_submit_blocking_waits_it_out() {
        let engine = engine();
        let config = FrontConfig::default()
            .with_queue_capacity(1)
            .with_scheduler(
                SchedulerConfig::unbounded().with_kv_capacity_bytes(engine.kv_footprint_bytes(4)),
            );
        let ((), outcome) = engine.front(config, |front| {
            // Capacity hosts roughly one request: the rest queue.
            let mut streams = Vec::new();
            let mut rejected = 0usize;
            for request in requests() {
                match front.submit(request.clone()) {
                    Ok(stream) => streams.push(stream),
                    Err(SubmitError::QueueFull { waiting }) => {
                        assert_eq!(waiting, 1);
                        rejected += 1;
                        streams.push(
                            front
                                .submit_blocking(request)
                                .expect("blocking submit waits for a slot"),
                        );
                    }
                    Err(SubmitError::Draining) => unreachable!("not draining"),
                }
            }
            assert!(rejected > 0, "the tiny queue must reject at least once");
            for stream in &streams {
                loop {
                    match front.recv(stream) {
                        StreamPoll::Finished { shed } => {
                            assert_eq!(shed, None);
                            break;
                        }
                        StreamPoll::Token(_) => {}
                        StreamPoll::Pending => unreachable!("live streams progress"),
                    }
                }
            }
        });
        let baseline = engine
            .serve(requests(), crate::engine::ServeOptions::new())
            .unwrap();
        for (a, b) in outcome.outcomes.iter().zip(baseline.outcomes.iter()) {
            assert_eq!(a.generated, b.generated);
        }
    }

    #[test]
    fn stream_capacity_pauses_and_resumes_without_changing_tokens() {
        let engine = engine();
        let config = FrontConfig::default().with_stream_capacity(1);
        let (tokens, outcome) = engine.front(config, |front| {
            let slow = front
                .submit(ServeRequest::new(vec![1, 2, 3], 6))
                .expect("unbounded queue");
            let fast = front
                .submit(ServeRequest::new(vec![4, 5], 6))
                .expect("unbounded queue");
            // Drive only the fast stream; the slow one pauses at 1 buffered
            // token instead of accumulating.
            let mut fast_tokens = Vec::new();
            loop {
                match front.recv(&fast) {
                    StreamPoll::Token(token) => fast_tokens.push(token),
                    StreamPoll::Finished { .. } => break,
                    StreamPoll::Pending => unreachable!("live streams progress"),
                }
                assert!(slow.buffered() <= 1, "paused stream must not run ahead");
            }
            // Now catch up on the slow stream.
            let mut slow_tokens = Vec::new();
            loop {
                match front.recv(&slow) {
                    StreamPoll::Token(token) => slow_tokens.push(token),
                    StreamPoll::Finished { .. } => break,
                    StreamPoll::Pending => unreachable!("live streams progress"),
                }
            }
            (slow_tokens, fast_tokens)
        });
        assert_eq!(tokens.0, outcome.outcomes[0].generated);
        assert_eq!(tokens.1, outcome.outcomes[1].generated);
        let baseline = engine
            .serve(
                vec![
                    ServeRequest::new(vec![1, 2, 3], 6),
                    ServeRequest::new(vec![4, 5], 6),
                ],
                crate::engine::ServeOptions::new(),
            )
            .unwrap();
        assert_eq!(tokens.0, baseline.outcomes[0].generated);
        assert_eq!(tokens.1, baseline.outcomes[1].generated);
    }

    #[test]
    fn cancel_and_drain_terminate_streams_with_reasons() {
        let engine = engine();
        let ((), outcome) = engine.front(FrontConfig::default(), |front| {
            let doomed = front
                .submit(ServeRequest::new(vec![1, 2, 3], 50))
                .expect("unbounded queue");
            let survivor = front
                .submit(ServeRequest::new(vec![4, 5, 6], 4))
                .expect("unbounded queue");
            // A couple of ticks, then cancel the long request mid-stream.
            front.pump();
            front.pump();
            assert!(front.cancel(doomed.request()));
            assert!(!front.cancel(doomed.request()), "cancel is idempotent");
            let mut saw = Vec::new();
            loop {
                match front.recv(&doomed) {
                    StreamPoll::Token(token) => saw.push(token),
                    StreamPoll::Finished { shed } => {
                        assert_eq!(shed, Some(ShedReason::Cancelled));
                        break;
                    }
                    StreamPoll::Pending => unreachable!("terminated streams resolve"),
                }
            }
            assert!(!saw.is_empty(), "partial output is kept");
            front.drain();
            assert!(matches!(
                front.submit(ServeRequest::new(vec![9], 1)),
                Err(SubmitError::Draining)
            ));
            loop {
                match front.recv(&survivor) {
                    StreamPoll::Token(_) => {}
                    StreamPoll::Finished { shed } => {
                        assert_eq!(shed, None, "drain completes active requests");
                        break;
                    }
                    StreamPoll::Pending => unreachable!("drained front is idle"),
                }
            }
        });
        assert_eq!(outcome.outcomes[0].shed, Some(ShedReason::Cancelled));
        assert_eq!(outcome.outcomes[1].shed, None);
        assert_eq!(outcome.outcomes[1].generated.len(), 4);
    }

    #[test]
    fn sticky_front_crosses_the_queue_less_than_stealing() {
        let engine = KelleEngine::builder().workers(2).build();
        let long_lived: Vec<ServeRequest> = (0..6)
            .map(|i| ServeRequest::new(vec![i + 1, i + 2], 24))
            .collect();
        let run = |kind: ExecutorKind| {
            let requests = long_lived.clone();
            engine
                .front(FrontConfig::default().with_executor(kind), move |front| {
                    for request in requests {
                        front.submit(request).expect("unbounded queue");
                    }
                })
                .1
        };
        let sticky = run(ExecutorKind::Sticky);
        let stealing = run(ExecutorKind::Stealing);
        for (a, b) in sticky.outcomes.iter().zip(stealing.outcomes.iter()) {
            assert_eq!(a.generated, b.generated);
        }
        assert_eq!(sticky.parallel.ticks, stealing.parallel.ticks);
        assert!(
            sticky.parallel.queue_crossings < stealing.parallel.queue_crossings,
            "sticky {} !< stealing {}",
            sticky.parallel.queue_crossings,
            stealing.parallel.queue_crossings,
        );
        assert_eq!(
            sticky.parallel.sessions_migrated, 0,
            "pinning never migrates"
        );
    }
}
