//! Out-of-band probes of the lower layers, run after the measured rounds.

use std::hint::black_box;
use std::time::Instant;

use kelle::edram::RetentionModel;
use kelle::model::fault::{FaultInjector, TokenGroup};
use kelle::tensor::Matrix;
use kelle::{fault_injector_for_policy, KelleEngine};

use crate::spans::Tracer;
use crate::stats;
use crate::workloads::Arrival;

/// Words corrupted by the fault probe.
const CORRUPT_WORDS: usize = 1 << 20;
/// Distinct input words the fault probe cycles through (a power of two).
const CORRUPT_INPUTS: usize = 1 << 12;
/// Multiply-accumulates per timed batch of the matvec probe.
const MATVEC_MACS_PER_BATCH: usize = 4 << 20;
/// Timed batches per matvec shape; the median batch is reported.
const MATVEC_BATCHES: usize = 5;

/// Prompt-length buckets of the cold-prefill probe: inclusive upper bounds
/// and metric-name suffixes.
pub const PREFILL_BUCKETS: [(usize, &str); 3] = [
    (32, "len_1_32"),
    (128, "len_33_128"),
    (usize::MAX, "len_129_up"),
];

/// Nanoseconds per `FaultInjector::corrupt` call on the injector the
/// engine's refresh policy builds.
pub fn corrupt_ns_per_word(engine: &KelleEngine, seed: u64, tracer: &mut Tracer) -> f64 {
    let mut injector = fault_injector_for_policy(
        &engine.config().refresh_policy,
        &RetentionModel::default(),
        seed,
    );
    // Inputs are precomputed so the timed loop is the call and little else.
    let inputs: Vec<(f32, TokenGroup)> = (0..CORRUPT_INPUTS)
        .map(|i| {
            let group = if i % 2 == 0 {
                TokenGroup::HighScore
            } else {
                TokenGroup::LowScore
            };
            (0.25 + (i % 97) as f32 * 0.01, group)
        })
        .collect();
    let start = Instant::now();
    tracer.scope("probe.corrupt", None, || {
        let mut acc = 0.0f32;
        for i in 0..CORRUPT_WORDS {
            let (value, group) = inputs[i % CORRUPT_INPUTS];
            acc += injector.corrupt(black_box(value), group);
        }
        black_box(acc);
    });
    start.elapsed().as_nanos() as f64 / CORRUPT_WORDS as f64
}

/// One matvec shape's cost.
#[derive(Debug, Clone, Copy)]
pub struct MatvecCost {
    /// Output rows.
    pub rows: usize,
    /// Input columns.
    pub cols: usize,
    /// Median nanoseconds per `Matrix::matvec_into` call.
    pub ns_per_call: f64,
}

impl MatvecCost {
    /// Floating-point operations per call (a multiply and an add per
    /// weight).
    pub fn flops(&self) -> f64 {
        2.0 * (self.rows * self.cols) as f64
    }

    /// Bytes a call reads and writes, computed from the f32 tensor sizes:
    /// the matrix, the input vector and the output vector.
    pub fn bytes(&self) -> f64 {
        4.0 * (self.rows * self.cols + self.cols + self.rows) as f64
    }
}

/// The surrogate's projection shapes as `(rows, cols)`: attention
/// projections, FFN up and down, and the LM head.
pub fn surrogate_shapes(engine: &KelleEngine) -> [(usize, usize); 4] {
    let dims = engine.model().dims();
    [
        (dims.channels, dims.channels),
        (dims.ffn_dim, dims.channels),
        (dims.channels, dims.ffn_dim),
        (dims.vocab, dims.channels),
    ]
}

/// Times `Matrix::matvec_into` at each shape.
pub fn matvec_costs(shapes: &[(usize, usize)], tracer: &mut Tracer) -> Vec<MatvecCost> {
    shapes
        .iter()
        .map(|&(rows, cols)| {
            let data = (0..rows * cols)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 1e-3)
                .collect();
            let matrix = Matrix::from_flat(rows, cols, data).expect("shape matches data");
            let input: Vec<f32> = (0..cols).map(|i| (i % 13) as f32 * 0.1).collect();
            let mut out = Vec::with_capacity(rows);
            let calls = (MATVEC_MACS_PER_BATCH / (rows * cols)).max(1);
            let batches: Vec<f64> = (0..MATVEC_BATCHES)
                .map(|_| {
                    let start = Instant::now();
                    tracer.scope("probe.matvec", None, || {
                        for _ in 0..calls {
                            matrix
                                .matvec_into(black_box(&input), &mut out)
                                .expect("input length matches");
                            black_box(&out);
                        }
                    });
                    start.elapsed().as_nanos() as f64 / calls as f64
                })
                .collect();
            MatvecCost {
                rows,
                cols,
                ns_per_call: stats::median(&batches),
            }
        })
        .collect()
}

/// Prefill and decode costs of requests replayed one session at a time.
#[derive(Debug, Clone, Default)]
pub struct SessionCosts {
    /// Per [`PREFILL_BUCKETS`] entry: cold prefill µs and computed tokens.
    pub cold: [(f64, usize); 3],
    /// Prefill that hit the prefix store: µs and prompt tokens.
    pub prefix_hit: (f64, usize),
    /// Decode: ms and steps.
    pub decode: (f64, usize),
}

impl SessionCosts {
    /// µs per token of cold prefill in bucket `bucket` (0 when empty).
    pub fn cold_us_per_token(&self, bucket: usize) -> f64 {
        ratio(self.cold[bucket].0, self.cold[bucket].1 as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replays `sample` through `open_session_for` + `prefill` + `decode_one`.
pub fn session_costs(
    engine: &KelleEngine,
    arrivals: &[Arrival],
    sample: &[usize],
    tracer: &mut Tracer,
) -> SessionCosts {
    let mut costs = SessionCosts::default();
    for &index in sample {
        let request = &arrivals[index].request;
        let prompt = request.prompt();
        let mut session = engine.open_session_for(request);
        let start = Instant::now();
        let computed = tracer.scope("probe.prefill", Some(index), || session.prefill(prompt));
        let prefill_us = start.elapsed().as_secs_f64() * 1e6;
        if session.prefix_hit_tokens() > 0 {
            costs.prefix_hit.0 += prefill_us;
            costs.prefix_hit.1 += prompt.len();
        } else {
            let bucket = PREFILL_BUCKETS
                .iter()
                .position(|&(max, _)| prompt.len() <= max)
                .expect("the last bucket is unbounded");
            costs.cold[bucket].0 += prefill_us;
            costs.cold[bucket].1 += computed;
        }
        let start = Instant::now();
        tracer.scope("probe.decode", Some(index), || {
            for _ in 0..request.decode_len() {
                black_box(session.decode_one());
            }
        });
        costs.decode.0 += start.elapsed().as_secs_f64() * 1e3;
        costs.decode.1 += request.decode_len();
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_cost_counts_operations_and_bytes() {
        let cost = MatvecCost {
            rows: 172,
            cols: 64,
            ns_per_call: 1.0,
        };
        assert_eq!(cost.flops(), 2.0 * 172.0 * 64.0);
        assert_eq!(cost.bytes(), 4.0 * (172.0 * 64.0 + 64.0 + 172.0));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
