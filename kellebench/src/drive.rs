//! Serving one round of a workload's request set and checking its outputs.
//!
//! Tick-paced workloads run an open loop on the scheduler's tick clock:
//! each [`ServingFront::pump`](kelle::ServingFront::pump) is one tick, a
//! request is submitted when the tick count reaches its arrival tick, and
//! when the scheduler is idle the clock jumps to the next arrival.  A
//! request's latency is timed from the wall-clock instant its arrival tick
//! began, so a slow tick delays every request due after it, but every run of
//! a seed serves the same requests on the same ticks.

use std::time::Instant;

use kelle::front::StreamPoll;
use kelle::{BatchOutcome, KelleEngine, ServeOptions, TokenStream};

use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::workloads::Setup;

/// What one request saw, by benchmark request index.
#[derive(Debug)]
struct Record {
    index: usize,
    due: Instant,
    tokens: Vec<usize>,
    times: Vec<Instant>,
    shed: bool,
    refused: bool,
}

impl Record {
    fn new(index: usize, due: Instant) -> Self {
        Record {
            index,
            due,
            tokens: Vec::new(),
            times: Vec::new(),
            shed: false,
            refused: false,
        }
    }
}

/// Queue samples taken before every tick of a tick-paced round.
#[derive(Debug, Clone, Default)]
pub struct TickSamples {
    /// Sessions stepped per tick (`BatchScheduler::active`).
    pub batch_size: Vec<f64>,
    /// Requests waiting for admission per tick (`BatchScheduler::waiting`).
    pub queue_depth: Vec<f64>,
}

/// Everything one round produced.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the round in seconds.
    pub wall_s: f64,
    /// First token minus due time, per request that produced one, in ms.
    pub ttft: Summary,
    /// Time per output token of each request that produced two or more
    /// tokens: the mean gap between its consecutive tokens, in ms.  The
    /// scheduler's `SloReport` defines TPOT the same way in ticks.
    pub tpot: Summary,
    /// Tokens delivered to the benchmark.
    pub tokens: usize,
    /// The round's batch outcome.
    pub outcome: BatchOutcome,
    /// Streams as delivered to the benchmark, by request index.
    pub streams: Vec<Vec<usize>>,
    /// Requests refused, shed, short or whose delivered stream differs from
    /// the engine's outcome.
    pub failed: usize,
    /// Digest of every delivered stream, in request order.
    pub digest: u64,
    /// Queue samples (tick-paced rounds only).
    pub ticks: TickSamples,
}

impl Round {
    /// Output tokens per second of wall time.
    pub fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / self.wall_s
    }
}

/// Serves the set-up's request set once to completion.
pub fn run_round(setup: &Setup, tracer: &mut Tracer) -> Round {
    let round = tracer.enter("round", None);
    let start = Instant::now();
    let (records, outcome, ticks) = if setup.workload.tick_paced() {
        serve_tick_paced(setup, tracer)
    } else {
        serve_backlog(setup, tracer)
    };
    let wall_s = start.elapsed().as_secs_f64();
    tracer.exit(round);
    summarize_round(setup, records, outcome, ticks, wall_s)
}

fn serve_tick_paced(
    setup: &Setup,
    tracer: &mut Tracer,
) -> (Vec<Record>, BatchOutcome, TickSamples) {
    let arrivals = &setup.arrivals;
    let serve = tracer.enter("serve", None);
    let ((records, ticks), outcome) = setup.engine.front(setup.front_config(), |front| {
        let drive = tracer.enter("drive", None);
        let origin = Instant::now();
        let mut records: Vec<Record> = (0..arrivals.len())
            .map(|i| Record::new(i, origin))
            .collect();
        let mut streams: Vec<Option<TokenStream>> = vec![None; arrivals.len()];
        let mut live: Vec<usize> = Vec::new();
        let mut samples = TickSamples::default();
        let mut next = 0;
        let mut tick = 0u64;
        loop {
            if front.scheduler().is_idle() {
                match arrivals.get(next) {
                    Some(arrival) => tick = tick.max(arrival.tick),
                    None => break,
                }
            }
            let tick_start = Instant::now();
            while let Some(arrival) = arrivals.get(next).filter(|a| a.tick <= tick) {
                records[next].due = tick_start;
                let id = tracer.enter("submit", Some(next));
                let submitted = front.submit(arrival.request.clone());
                tracer.exit(id);
                match submitted {
                    Ok(stream) => {
                        streams[next] = Some(stream);
                        live.push(next);
                    }
                    Err(_) => records[next].refused = true,
                }
                next += 1;
            }
            samples.batch_size.push(front.scheduler().active() as f64);
            samples.queue_depth.push(front.scheduler().waiting() as f64);
            let id = tracer.enter("pump", None);
            front.pump();
            tracer.exit(id);
            let id = tracer.enter("sink", None);
            let now = Instant::now();
            live.retain(|&index| {
                let stream = streams[index].as_ref().expect("live streams exist");
                let record = &mut records[index];
                loop {
                    match stream.try_next() {
                        StreamPoll::Token(token) => {
                            record.tokens.push(token);
                            record.times.push(now);
                        }
                        StreamPoll::Finished { shed } => {
                            record.shed = shed.is_some();
                            return false;
                        }
                        StreamPoll::Pending => return true,
                    }
                }
            });
            tracer.exit(id);
            tick += 1;
        }
        tracer.exit(drive);
        // Outcomes are indexed by scheduler submission order, which skips
        // refused requests.
        records.retain(|r| !r.refused);
        (records, samples)
    });
    tracer.exit(serve);
    (records, outcome, ticks)
}

fn serve_backlog(setup: &Setup, tracer: &mut Tracer) -> (Vec<Record>, BatchOutcome, TickSamples) {
    let requests: Vec<_> = setup.arrivals.iter().map(|a| a.request.clone()).collect();
    let options_config = setup.scheduler_config();
    let serve = tracer.enter("serve", None);
    let start = Instant::now();
    let mut records: Vec<Record> = (0..requests.len()).map(|i| Record::new(i, start)).collect();
    let mut sink = |request: usize, token: usize| {
        let id = tracer.enter("sink", Some(request));
        let record = &mut records[request];
        record.tokens.push(token);
        record.times.push(Instant::now());
        tracer.exit(id);
    };
    let outcome = setup
        .engine
        .serve(
            requests,
            ServeOptions::new()
                .with_scheduler(options_config)
                .parallel()
                .streaming(&mut sink),
        )
        .expect("infallible serve options cannot fail");
    tracer.exit(serve);
    for (record, served) in records.iter_mut().zip(&outcome.outcomes) {
        record.shed = served.shed.is_some();
    }
    (records, outcome, TickSamples::default())
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

fn summarize_round(
    setup: &Setup,
    records: Vec<Record>,
    outcome: BatchOutcome,
    ticks: TickSamples,
    wall_s: f64,
) -> Round {
    let mut failed = setup.arrivals.len() - records.len();
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut tokens = 0;
    let mut streams = vec![Vec::new(); setup.arrivals.len()];
    for (record, served) in records.into_iter().zip(&outcome.outcomes) {
        tokens += record.tokens.len();
        if let Some(&first) = record.times.first() {
            ttft.push(ms(record.due, first));
        }
        if let [first, .., last] = record.times[..] {
            tpot.push(ms(first, last) / (record.times.len() - 1) as f64);
        }
        let short = record.tokens.len() != setup.arrivals[record.index].request.decode_len();
        if record.shed || short || record.tokens != served.generated {
            failed += 1;
        }
        streams[record.index] = record.tokens;
    }
    Round {
        wall_s,
        ttft: stats::summarize(ttft),
        tpot: stats::summarize(tpot),
        tokens,
        digest: digest(&streams),
        outcome,
        streams,
        failed,
        ticks,
    }
}

/// FNV-1a digest of token streams, request by request.
pub fn digest(streams: &[Vec<usize>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stream in streams {
        feed(stream.len() as u64);
        for &token in stream {
            feed(token as u64);
        }
    }
    hash
}

/// Indices of an evenly spaced sample of `count` out of `n` requests,
/// always including the first and the last.
pub fn sample_indices(n: usize, count: usize) -> Vec<usize> {
    if n == 0 || count == 0 {
        return Vec::new();
    }
    if count == 1 || n == 1 {
        return vec![0];
    }
    let count = count.min(n);
    let mut indices: Vec<usize> = (0..count).map(|k| k * (n - 1) / (count - 1)).collect();
    indices.dedup();
    indices
}

/// Re-serves a sample of requests one at a time through
/// [`KelleEngine::serve_request`] and counts those whose stream differs
/// from the measured one.
pub fn recheck(
    engine: &KelleEngine,
    setup: &Setup,
    streams: &[Vec<usize>],
    sample: &[usize],
    tracer: &mut Tracer,
) -> usize {
    sample
        .iter()
        .filter(|&&index| {
            let request = setup.arrivals[index].request.clone();
            let reference = tracer.scope("recheck", Some(index), || engine.serve_request(request));
            reference.generated != streams[index]
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Arrival, Workload};
    use kelle::ServeRequest;

    /// A tiny request set on a workload's engine, so the test runs fast.
    fn tiny(workload: Workload) -> Setup {
        let mut setup = Setup::new(workload, 11, &mut Tracer::new(false));
        setup.arrivals = (0..4)
            .map(|i| Arrival {
                tick: 2 * i as u64,
                request: ServeRequest::new(vec![3 + i, 7, 11, 13 + i], 3),
            })
            .collect();
        setup
    }

    #[test]
    fn stream_digest_repeats_across_rounds_and_entry_points() {
        for workload in [Workload::Chat2drp, Workload::PrefixBacklog] {
            let setup = tiny(workload);
            let first = run_round(&setup, &mut Tracer::new(false));
            let second = run_round(&setup, &mut Tracer::new(true));
            assert_eq!(first.failed, 0);
            assert_eq!(first.tokens, 12);
            assert_eq!(first.digest, second.digest);
            assert_eq!(first.streams, second.streams);
            let all: Vec<usize> = (0..4).collect();
            let mut tracer = Tracer::new(false);
            assert_eq!(
                recheck(&setup.engine, &setup, &first.streams, &all, &mut tracer),
                0
            );
        }
    }

    #[test]
    fn digest_sees_order_and_boundaries() {
        let a = digest(&[vec![1, 2], vec![3]]);
        assert_eq!(a, digest(&[vec![1, 2], vec![3]]));
        assert_ne!(a, digest(&[vec![1], vec![2, 3]]));
        assert_ne!(a, digest(&[vec![3], vec![1, 2]]));
    }

    #[test]
    fn sample_spans_the_request_set() {
        assert_eq!(sample_indices(10, 4), vec![0, 3, 6, 9]);
        assert_eq!(sample_indices(3, 8), vec![0, 1, 2]);
        assert_eq!(sample_indices(5, 1), vec![0]);
        assert!(sample_indices(0, 3).is_empty());
    }
}
