//! Intra-session decode parallelism measurement: sequential single-session
//! decode vs. the per-head / row-blocked fan-out over the
//! [`WorkerPool`], at every configured worker
//! count *in the same run*.
//!
//! Both sides run the identical production pipeline
//! ([`prefill`] + [`decode_step`] / [`decode_step_with_runner`]) on the same
//! model, prompt and cache policy; the intra side only changes *where* the
//! per-head attention jobs and projection row blocks execute.  Token streams
//! **and per-step probability bits** are asserted identical while being
//! timed, so a reported speedup can never come from computing something
//! different.
//!
//! The measured surrogate is widened
//! (`channels` 256, `ffn_dim` 688, `vocab` 4096) so each forked job carries
//! enough arithmetic to amortize the fork: at the default functional dims a
//! decode step is a few hundred thousand MACs and queue traffic dominates.
//! The report records the host's available parallelism —
//! on a single-core host every worker count necessarily measures at or below
//! 1.0x (the fan-out machinery is pure overhead without extra cores), which
//! is why `host_parallelism` is part of the JSON artifact: the speedup
//! criterion is only meaningful where `host_parallelism > 1`.
//!
//! Shared by the `bench_intra` binary (which emits `BENCH_intra.json`) and
//! the `tables --table intra` report.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use kelle::cache::{CacheBudget, CachePolicy};
use kelle::model::fault::NoFaults;
use kelle::model::generation::{decode_step, decode_step_with_runner, prefill, GenerationState};
use kelle::model::{KvCacheBackend, ModelConfig, ModelKind, SurrogateDims, SurrogateModel};
use kelle::parallel::WorkerPool;

/// Configuration of one intra-session parallelism measurement.
#[derive(Debug, Clone)]
pub struct IntraPerfConfig {
    /// Prompt length pre-filled before timing starts.
    pub prompt_len: usize,
    /// Decode steps timed per repetition.
    pub decode_len: usize,
    /// Timing repetitions; the best repetition is reported.
    pub repeats: usize,
    /// Weight/prompt seed.
    pub seed: u64,
    /// Worker counts measured on the intra axis (the coordinator always
    /// participates as one extra lane on top of each count).
    pub worker_counts: Vec<usize>,
}

impl IntraPerfConfig {
    /// The quick configuration used by CI (a few seconds).
    pub fn quick() -> Self {
        IntraPerfConfig {
            prompt_len: 32,
            decode_len: 16,
            repeats: 2,
            seed: 11,
            worker_counts: vec![1, 2, 4],
        }
    }

    /// The full configuration for local benchmarking.
    pub fn full() -> Self {
        IntraPerfConfig {
            prompt_len: 48,
            decode_len: 64,
            repeats: 4,
            seed: 11,
            worker_counts: vec![1, 2, 4],
        }
    }
}

/// Throughput of single-session decode in one execution mode.
#[derive(Debug, Clone)]
pub struct IntraPerfRow {
    /// Worker count on the intra axis, or `None` for the sequential
    /// reference.
    pub workers: Option<usize>,
    /// Decode tokens generated per timed repetition.
    pub decode_tokens: usize,
    /// Best-repetition wall-clock seconds for the timed decode loop.
    pub decode_seconds: f64,
    /// `decode_tokens / decode_seconds`.
    pub tokens_per_sec: f64,
    /// Per-token decode latency in microseconds.
    pub token_latency_us: f64,
    /// `tokens_per_sec / sequential tokens_per_sec` (`None` on the
    /// sequential row).
    pub speedup_vs_sequential: Option<f64>,
    /// Whether this row's token stream and per-step probability bits matched
    /// the sequential reference exactly (always asserted; recorded for the
    /// JSON artifact).
    pub streams_identical: bool,
}

/// A complete intra-session parallelism report.
#[derive(Debug, Clone)]
pub struct IntraPerfReport {
    /// The configuration measured.
    pub config: IntraPerfConfig,
    /// Cache policy driven on every row.
    pub policy: CachePolicy,
    /// Surrogate dimensions of the widened benchmark model.
    pub dims: SurrogateDims,
    /// `std::thread::available_parallelism()` on the measuring host.  The
    /// speedup rows are only meaningful where this exceeds 1: on a
    /// single-core host the fan-out is pure overhead by construction.
    pub host_parallelism: usize,
    /// Sequential reference first, then one row per worker count.
    pub rows: Vec<IntraPerfRow>,
}

impl IntraPerfReport {
    /// The best intra speedup across worker counts (1.0 if only the
    /// sequential row exists).
    pub fn best_speedup(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.speedup_vs_sequential)
            .fold(1.0, f64::max)
    }

    /// Serializes the report as a JSON object (hand-rolled: the workspace has
    /// no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"intra_session_decode\",\n");
        out.push_str(&format!("  \"policy\": \"{}\",\n", self.policy.name()));
        out.push_str(&format!(
            "  \"dims\": {{\"layers\": {}, \"heads\": {}, \"channels\": {}, \
             \"ffn_dim\": {}, \"vocab\": {}}},\n",
            self.dims.layers,
            self.dims.heads,
            self.dims.channels,
            self.dims.ffn_dim,
            self.dims.vocab
        ));
        out.push_str(&format!("  \"prompt_len\": {},\n", self.config.prompt_len));
        out.push_str(&format!("  \"decode_len\": {},\n", self.config.decode_len));
        out.push_str(&format!("  \"repeats\": {},\n", self.config.repeats));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str(&format!(
            "  \"best_speedup\": {:.4},\n",
            self.best_speedup()
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let workers = row
                .workers
                .map(|w| w.to_string())
                .unwrap_or_else(|| "null".to_string());
            let speedup = row
                .speedup_vs_sequential
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "    {{\"workers\": {workers}, \"decode_tokens\": {}, \
                 \"decode_seconds\": {:.6}, \"tokens_per_sec\": {:.2}, \
                 \"token_latency_us\": {:.2}, \"speedup_vs_sequential\": {speedup}, \
                 \"streams_identical\": {}}}{}\n",
                row.decode_tokens,
                row.decode_seconds,
                row.tokens_per_sec,
                row.token_latency_us,
                row.streams_identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact (`BENCH_intra.json`).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())
    }
}

/// The widened benchmark surrogate: LLaMA3.2-3B-proportioned but scaled so a
/// decode step carries several million MACs (see the module docs).
fn bench_dims() -> SurrogateDims {
    SurrogateDims {
        layers: 4,
        heads: 8,
        channels: 256,
        ffn_dim: 688,
        vocab: 4096,
    }
}

fn bench_model(seed: u64) -> (SurrogateModel, CacheBudget) {
    let config = ModelConfig::for_kind(ModelKind::Llama3_2_3b).with_surrogate(bench_dims());
    let model = SurrogateModel::new(config, seed);
    let budget = CacheBudget::new(48)
        .with_recent_window(16)
        .with_sink_tokens(2);
    (model, budget)
}

fn bench_prompt(model: &SurrogateModel, len: usize, seed: usize) -> Vec<usize> {
    let vocab = model.dims().vocab;
    (0..len).map(|i| (i * 31 + seed * 17 + 5) % vocab).collect()
}

/// One timed decode run.  Returns (elapsed seconds, tokens, flattened
/// per-step probability bits).
fn run_decode(
    model: &SurrogateModel,
    prompt: &[usize],
    decode_len: usize,
    mut cache: Box<dyn KvCacheBackend>,
    pool: Option<&WorkerPool<'_, '_>>,
) -> (f64, Vec<usize>, Vec<u32>) {
    let mut faults = NoFaults;
    let mut state = GenerationState::new();
    prefill(model, &mut state, prompt, cache.as_mut(), &mut faults);
    let runner = pool.map(WorkerPool::runner);
    let mut generated = Vec::with_capacity(decode_len);
    let mut prob_bits = Vec::with_capacity(decode_len * model.dims().vocab);
    let start = Instant::now();
    for _ in 0..decode_len {
        let step = match &runner {
            Some(runner) => decode_step_with_runner(
                model,
                &mut state,
                None,
                cache.as_mut(),
                &mut faults,
                runner,
            ),
            None => decode_step(model, &mut state, None, cache.as_mut(), &mut faults),
        };
        generated.push(black_box(step.token));
        prob_bits.extend(step.probs.iter().map(|p| p.to_bits()));
    }
    (start.elapsed().as_secs_f64(), generated, prob_bits)
}

/// Best-of-`repeats` measurement of one mode; asserts the produced streams
/// against `reference` when given.
fn measure_mode(
    config: &IntraPerfConfig,
    model: &SurrogateModel,
    budget: CacheBudget,
    policy: CachePolicy,
    prompt: &[usize],
    workers: Option<usize>,
    reference: Option<&(Vec<usize>, Vec<u32>)>,
) -> (IntraPerfRow, (Vec<usize>, Vec<u32>)) {
    let heads = model.dims().heads;
    let mut best = f64::INFINITY;
    let mut streams = (Vec::new(), Vec::new());
    for _ in 0..config.repeats.max(1) {
        let cache = policy.build(budget, heads);
        let (secs, tokens, bits) = match workers {
            Some(count) => std::thread::scope(|scope| {
                let pool = WorkerPool::start(scope, count);
                run_decode(model, prompt, config.decode_len, cache, Some(&pool))
            }),
            None => run_decode(model, prompt, config.decode_len, cache, None),
        };
        best = best.min(secs);
        streams = (tokens, bits);
    }
    if let Some((ref_tokens, ref_bits)) = reference {
        assert_eq!(
            &streams.0, ref_tokens,
            "intra decode diverged from sequential token stream at workers {workers:?}"
        );
        assert_eq!(
            &streams.1, ref_bits,
            "intra decode diverged from sequential probability bits at workers {workers:?}"
        );
    }
    let secs = best.max(f64::MIN_POSITIVE);
    let tokens_per_sec = config.decode_len as f64 / secs;
    let row = IntraPerfRow {
        workers,
        decode_tokens: config.decode_len,
        decode_seconds: best,
        tokens_per_sec,
        token_latency_us: secs * 1e6 / config.decode_len as f64,
        speedup_vs_sequential: None,
        streams_identical: true,
    };
    (row, streams)
}

/// Runs the full sequential-vs-intra comparison.
///
/// # Panics
///
/// Panics if any intra row's token stream or probability bits diverge from
/// the sequential reference (they cannot, by the bit-equivalence guarantee —
/// this is the benchmark's self-check).
pub fn run(config: IntraPerfConfig) -> IntraPerfReport {
    let policy = CachePolicy::Aerp;
    let (model, budget) = bench_model(config.seed);
    let prompt = bench_prompt(&model, config.prompt_len, config.seed as usize);

    let (sequential, reference) =
        measure_mode(&config, &model, budget, policy, &prompt, None, None);
    let base_tps = sequential.tokens_per_sec;
    let mut rows = vec![sequential];
    for &workers in &config.worker_counts {
        let (mut row, _) = measure_mode(
            &config,
            &model,
            budget,
            policy,
            &prompt,
            Some(workers),
            Some(&reference),
        );
        row.speedup_vs_sequential = Some(row.tokens_per_sec / base_tps.max(f64::MIN_POSITIVE));
        rows.push(row);
    }
    IntraPerfReport {
        dims: *model.dims(),
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        config,
        policy,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_runs_and_streams_agree() {
        let config = IntraPerfConfig {
            prompt_len: 8,
            decode_len: 3,
            repeats: 1,
            seed: 5,
            worker_counts: vec![2],
        };
        let report = run(config);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.streams_identical));
        assert!(report.rows[0].workers.is_none());
        assert_eq!(report.rows[1].workers, Some(2));
        assert!(report.rows[1].speedup_vs_sequential.is_some());
        assert!(report.host_parallelism >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = IntraPerfReport {
            config: IntraPerfConfig::quick(),
            policy: CachePolicy::Aerp,
            dims: bench_dims(),
            host_parallelism: 8,
            rows: vec![
                IntraPerfRow {
                    workers: None,
                    decode_tokens: 16,
                    decode_seconds: 0.5,
                    tokens_per_sec: 32.0,
                    token_latency_us: 31250.0,
                    speedup_vs_sequential: None,
                    streams_identical: true,
                },
                IntraPerfRow {
                    workers: Some(4),
                    decode_tokens: 16,
                    decode_seconds: 0.25,
                    tokens_per_sec: 64.0,
                    token_latency_us: 15625.0,
                    speedup_vs_sequential: Some(2.0),
                    streams_identical: true,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"intra_session_decode\""));
        assert!(json.contains("\"host_parallelism\": 8"));
        assert!(json.contains("\"speedup_vs_sequential\": 2.0000"));
        assert!(json.contains("\"speedup_vs_sequential\": null"));
        assert!((report.best_speedup() - 2.0).abs() < 1e-9);
    }
}
