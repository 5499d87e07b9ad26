//! Generation driver: pre-fill + auto-regressive decode, reference runs and
//! side-by-side fidelity evaluation.
//!
//! The driver is built from two *resumable* entry points — [`prefill`] and
//! [`decode_step`] operating on a [`GenerationState`] — so callers that keep a
//! cache alive across requests (multi-turn sessions, continuous batching in
//! `kelle-core`) can append context and decode incrementally without
//! re-processing earlier tokens.  [`run_with`] composes the two into the
//! classic one-shot run.
//!
//! Accuracy-style experiments (Tables 2–6, Fig. 8) compare a *test*
//! configuration (some cache policy + fault model) against the *reference*
//! configuration (full cache, no faults) on the same prompt.  To keep the two
//! runs comparable, decoding is *teacher-forced on the reference trajectory*:
//! both runs see the token the reference model generated at each step, and the
//! metric is how much the test run's output distribution drifts (see
//! [`crate::metrics`]).

use crate::attention::DecodeScratch;
use crate::cache::{CacheStats, FullKvCache, KvCacheBackend, TokenId};
use crate::decoder::SurrogateModel;
use crate::fault::{FaultInjector, NoFaults};
use crate::metrics::{FidelityAccumulator, FidelityMetrics};
use serde::{Deserialize, Serialize};

/// How a generation run is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationConfig {
    /// Number of decode steps to run after the prompt.
    pub decode_len: usize,
    /// Whether decoding is greedy (always true for the reproduction; kept as a
    /// field so sampling strategies can be added without API breakage).
    pub greedy: bool,
}

impl GenerationConfig {
    /// A configuration decoding `decode_len` tokens greedily.
    pub fn greedy(decode_len: usize) -> Self {
        GenerationConfig {
            decode_len,
            greedy: true,
        }
    }
}

/// Per-step bookkeeping captured during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Sequence position of the generated token.
    pub position: usize,
    /// Token chosen at this step.
    pub token: TokenId,
    /// Cache occupancy after the step.
    pub cache_stats: CacheStats,
    /// Number of cache entries recomputed from stored inputs in this step.
    pub recomputed_entries: usize,
    /// Number of cache entries read as stored KV in this step.
    pub kv_entries_read: usize,
}

/// Running summary of a run's decode steps.
///
/// Each step is folded in by [`record`](DecodeTrace::record) as it happens,
/// so a trace stays the same size however many steps a run decodes; serving
/// outcomes never hold per-step records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeTrace {
    steps: usize,
    first_position: Option<usize>,
    peak_entries: usize,
    final_evictions: u64,
    recomputed_entries: usize,
    kv_entries_read: usize,
}

impl DecodeTrace {
    /// Folds one decode step into the summary.
    pub fn record(&mut self, step: &StepRecord) {
        let stats = &step.cache_stats;
        debug_assert_eq!(
            stats.bytes_fp16,
            stats.shared_bytes + stats.private_bytes,
            "cache byte split must sum at every step"
        );
        self.steps += 1;
        self.first_position.get_or_insert(step.position);
        self.peak_entries = self.peak_entries.max(stats.total_entries());
        self.final_evictions = stats.evictions;
        self.recomputed_entries += step.recomputed_entries;
        self.kv_entries_read += step.kv_entries_read;
    }

    /// Number of decode steps recorded.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Sequence position of the first recorded step, if any.
    pub fn first_position(&self) -> Option<usize> {
        self.first_position
    }

    /// Total evictions observed at the end of the run.
    pub fn final_evictions(&self) -> u64 {
        self.final_evictions
    }

    /// Peak number of stored entries (KV + recompute) across the run.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Fraction of attended entries, over the whole run, that required
    /// recomputation.
    pub fn recompute_fraction(&self) -> f64 {
        let total = self.recomputed_entries + self.kv_entries_read;
        if total == 0 {
            0.0
        } else {
            self.recomputed_entries as f64 / total as f64
        }
    }
}

/// Output of a generation run.
#[derive(Debug, Clone)]
pub struct GenerationOutput {
    /// Tokens produced during decoding (vocabulary ids).
    pub generated: Vec<usize>,
    /// Per-step next-token probability distributions.
    pub step_probs: Vec<Vec<f32>>,
    /// Decode trace.
    pub trace: DecodeTrace,
}

/// Cursor of a resumable generation: the next sequence position, the logits of
/// the most recently processed token, and cumulative pre-fill/decode counters.
///
/// A state always travels with one cache backend and one fault injector; the
/// caller owns all three and threads them through [`prefill`] and
/// [`decode_step`].  Positions are global across turns, so a state that
/// pre-filled 8 tokens and decoded 4 resumes at position 12.
///
/// The state also owns the [`DecodeScratch`] its forward passes run through:
/// the scratch buffers warm up during pre-fill and the first decode steps and
/// are reused verbatim afterwards, which is what makes steady-state decoding
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GenerationState {
    position: usize,
    last_logits: Vec<f32>,
    prefilled_tokens: usize,
    decoded_tokens: usize,
    scratch: DecodeScratch,
}

impl GenerationState {
    /// A fresh state at position zero.
    pub fn new() -> Self {
        GenerationState::default()
    }

    /// The next sequence position (total tokens processed so far).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Total prompt tokens processed through [`prefill`] across all turns.
    pub fn prefilled_tokens(&self) -> usize {
        self.prefilled_tokens
    }

    /// Total decode steps taken through [`decode_step`].
    pub fn decoded_tokens(&self) -> usize {
        self.decoded_tokens
    }

    /// Whether any token has been processed yet.
    pub fn has_context(&self) -> bool {
        !self.last_logits.is_empty()
    }

    /// The greedy next-token prediction from the current logits, or `None`
    /// before any token was processed.
    pub fn next_token(&self) -> Option<usize> {
        if self.last_logits.is_empty() {
            None
        } else {
            Some(SurrogateModel::argmax(&self.last_logits))
        }
    }

    /// The reusable scratch the state's forward passes run through.
    pub fn scratch_mut(&mut self) -> &mut DecodeScratch {
        &mut self.scratch
    }

    /// The logits of the most recently processed token (empty before any
    /// token was processed).
    pub fn last_logits(&self) -> &[f32] {
        &self.last_logits
    }

    /// Restores the cursor of a fresh state to the end of a replayed shared
    /// prefix: `tokens` positions are marked processed and `logits` become
    /// the last-token logits, exactly as if the prefix had been pre-filled
    /// through the model.  The replayed tokens are **not** counted as
    /// pre-fill work ([`prefilled_tokens`](GenerationState::prefilled_tokens)
    /// reports computed tokens only — the compute was paid once, at
    /// publication).
    ///
    /// # Panics
    ///
    /// Panics if the state has already processed tokens, or if `tokens` is
    /// zero / `logits` is empty (a prefix snapshot always has both).
    pub fn adopt_prefix(&mut self, tokens: usize, logits: &[f32]) {
        assert_eq!(
            self.position, 0,
            "a prefix can only be adopted by a fresh state"
        );
        assert!(tokens > 0, "a shared prefix holds at least one token");
        assert!(!logits.is_empty(), "a prefix snapshot carries logits");
        self.position = tokens;
        self.last_logits.clear();
        self.last_logits.extend_from_slice(logits);
    }
}

/// Everything produced by one [`decode_step`].
#[derive(Debug, Clone)]
pub struct DecodeStep {
    /// Token chosen greedily at this step.
    pub token: usize,
    /// Post-softmax next-token distribution.
    pub probs: Vec<f32>,
    /// Trace record for this step.
    pub record: StepRecord,
}

/// Processes `tokens` as additional context at the state's current position,
/// inserting their KV pairs into `cache`, and signals the end of pre-filling
/// so budgeted policies can apply their prefill retention rule.
///
/// Returns the number of tokens processed (i.e. `tokens.len()`), which is the
/// *only* pre-fill work performed — earlier turns' context is reused from the
/// cache, not re-processed.
///
/// # Panics
///
/// Panics if the state has no context yet and `tokens` is empty (the first
/// turn must provide at least one token).
pub fn prefill(
    model: &SurrogateModel,
    state: &mut GenerationState,
    tokens: &[usize],
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> usize {
    let count = prefill_extend(model, state, tokens, cache, faults);
    if !tokens.is_empty() {
        cache.finish_prefill(state.position);
    }
    count
}

/// Like [`prefill`], but **without** signalling
/// [`finish_prefill`](KvCacheBackend::finish_prefill) — the context tokens
/// are processed and inserted, and the cache stays in its pre-fill phase.
///
/// This is the building block of prefix sharing: a published prefix is
/// recorded through `prefill_extend` (the snapshot captures the cache
/// *mid-prefill*, before any prefill-retention rule fires), and a cache-hit
/// session replays the prefix, `prefill_extend`s its remaining prompt tokens
/// and only then finishes pre-fill once — the exact call sequence of a cold
/// single-call prefill, which is what makes the resulting backend state
/// bit-identical.
///
/// # Panics
///
/// Panics if the state has no context yet and `tokens` is empty.
pub fn prefill_extend(
    model: &SurrogateModel,
    state: &mut GenerationState,
    tokens: &[usize],
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> usize {
    assert!(
        state.has_context() || !tokens.is_empty(),
        "prompt must contain at least one token"
    );
    let vocab = model.dims().vocab;
    for tok in tokens {
        model.forward_token_with(
            *tok % vocab,
            state.position,
            cache,
            faults,
            &mut state.scratch,
        );
        state.last_logits.clear();
        state.last_logits.extend_from_slice(&state.scratch.logits);
        state.position += 1;
    }
    state.prefilled_tokens += tokens.len();
    tokens.len()
}

/// Runs one auto-regressive decode step.
///
/// The input token is `forced_input` when given (teacher forcing), otherwise
/// the state's own greedy prediction.  The chosen token, its distribution and
/// the per-step trace record are returned; the state advances by one position.
///
/// # Panics
///
/// Panics if nothing has been pre-filled yet.
pub fn decode_step(
    model: &SurrogateModel,
    state: &mut GenerationState,
    forced_input: Option<usize>,
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> DecodeStep {
    let next = state
        .next_token()
        .expect("decode_step requires pre-filled context");
    let vocab = model.dims().vocab;
    let input_token = forced_input.map(|t| t % vocab).unwrap_or(next);
    let position = state.position;
    let stats = model.forward_token_with(input_token, position, cache, faults, &mut state.scratch);
    let probs = SurrogateModel::probabilities(&state.scratch.logits);
    let choice = SurrogateModel::argmax(&state.scratch.logits);
    state.last_logits.clear();
    state.last_logits.extend_from_slice(&state.scratch.logits);
    state.position += 1;
    state.decoded_tokens += 1;
    DecodeStep {
        token: choice,
        probs,
        record: StepRecord {
            position,
            token: choice,
            cache_stats: cache.stats(),
            recomputed_entries: stats.recomputed_entries,
            kv_entries_read: stats.kv_entries_read,
        },
    }
}

/// [`decode_step`] with the forward pass fanned out across `runner`
/// (per-head attention, row-partitioned projections; see
/// [`SurrogateModel::forward_token_with_runner`]).
///
/// Token choice, probability bits, trace record and fault statistics are
/// bit-identical to [`decode_step`] for any lane count.  Pre-fill stays
/// sequential by design: it is a one-off cost per session and the
/// session-axis parallelism of `kelle::parallel` already covers it.
pub fn decode_step_with_runner(
    model: &SurrogateModel,
    state: &mut GenerationState,
    forced_input: Option<usize>,
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
    runner: &dyn kelle_tensor::par::ParallelRunner,
) -> DecodeStep {
    let next = state
        .next_token()
        .expect("decode_step requires pre-filled context");
    let vocab = model.dims().vocab;
    let input_token = forced_input.map(|t| t % vocab).unwrap_or(next);
    let position = state.position;
    let stats = model.forward_token_with_runner(
        input_token,
        position,
        cache,
        faults,
        &mut state.scratch,
        runner,
    );
    let probs = SurrogateModel::probabilities(&state.scratch.logits);
    let choice = SurrogateModel::argmax(&state.scratch.logits);
    state.last_logits.clear();
    state.last_logits.extend_from_slice(&state.scratch.logits);
    state.position += 1;
    state.decoded_tokens += 1;
    DecodeStep {
        token: choice,
        probs,
        record: StepRecord {
            position,
            token: choice,
            cache_stats: cache.stats(),
            recomputed_entries: stats.recomputed_entries,
            kv_entries_read: stats.kv_entries_read,
        },
    }
}

/// Runs the reference configuration (full cache, no faults) on `prompt`,
/// decoding `config.decode_len` tokens greedily.
pub fn run_reference(
    model: &SurrogateModel,
    prompt: &[usize],
    config: GenerationConfig,
) -> GenerationOutput {
    let mut cache = FullKvCache::new();
    let mut faults = NoFaults;
    run_with(model, prompt, config, None, &mut cache, &mut faults)
}

/// Runs a test configuration with the given cache backend and fault injector.
///
/// If `forced_tokens` is provided (typically the reference run's generated
/// tokens), decoding is teacher-forced on that trajectory; otherwise the run
/// decodes greedily from its own predictions.
///
/// This is the one-shot composition of [`prefill`] and [`decode_step`]; it
/// assumes a fresh cache and state.
pub fn run_with(
    model: &SurrogateModel,
    prompt: &[usize],
    config: GenerationConfig,
    forced_tokens: Option<&[usize]>,
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> GenerationOutput {
    assert!(!prompt.is_empty(), "prompt must contain at least one token");
    let mut state = GenerationState::new();
    prefill(model, &mut state, prompt, cache, faults);

    let mut generated = Vec::with_capacity(config.decode_len);
    let mut step_probs = Vec::with_capacity(config.decode_len);
    let mut trace = DecodeTrace::default();

    for step in 0..config.decode_len {
        // Teacher forcing replays the reference trajectory from step 1 on;
        // step 0's input is always the model's own prediction from the prompt.
        let forced_input = match forced_tokens {
            Some(forced) if step > 0 => Some(forced[step - 1]),
            _ => None,
        };
        let step_out = decode_step(model, &mut state, forced_input, cache, faults);
        generated.push(step_out.token);
        step_probs.push(step_out.probs);
        trace.record(&step_out.record);
    }

    GenerationOutput {
        generated,
        step_probs,
        trace,
    }
}

/// [`run_with`], driven through the historical materialize-then-compute
/// forward pass ([`SurrogateModel::forward_token_via_entries`]).
///
/// Every cached key/value is deep-cloned on every read and every intermediate
/// is freshly allocated — the storage layer's behaviour before the arena
/// rewrite.  The equivalence suite asserts its outputs (tokens *and*
/// per-step probability bits) are identical to [`run_with`]; the decode
/// benchmark reports the hot path's throughput win over it as the in-run
/// pre-arena baseline.
pub fn run_with_via_entries(
    model: &SurrogateModel,
    prompt: &[usize],
    config: GenerationConfig,
    forced_tokens: Option<&[usize]>,
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> GenerationOutput {
    assert!(!prompt.is_empty(), "prompt must contain at least one token");
    let vocab = model.dims().vocab;
    let mut position = 0usize;
    let mut last_logits = Vec::new();
    for tok in prompt {
        let (logits, _) = model.forward_token_via_entries(*tok % vocab, position, cache, faults);
        last_logits = logits;
        position += 1;
    }
    cache.finish_prefill(position);

    let mut generated = Vec::with_capacity(config.decode_len);
    let mut step_probs = Vec::with_capacity(config.decode_len);
    let mut trace = DecodeTrace::default();

    for step in 0..config.decode_len {
        let forced_input = match forced_tokens {
            Some(forced) if step > 0 => Some(forced[step - 1] % vocab),
            _ => None,
        };
        let input_token = forced_input.unwrap_or_else(|| SurrogateModel::argmax(&last_logits));
        let (logits, stats) = model.forward_token_via_entries(input_token, position, cache, faults);
        let probs = SurrogateModel::probabilities(&logits);
        let choice = SurrogateModel::argmax(&logits);
        generated.push(choice);
        step_probs.push(probs);
        trace.record(&StepRecord {
            position,
            token: choice,
            cache_stats: cache.stats(),
            recomputed_entries: stats.recomputed_entries,
            kv_entries_read: stats.kv_entries_read,
        });
        last_logits = logits;
        position += 1;
    }

    GenerationOutput {
        generated,
        step_probs,
        trace,
    }
}

/// Runs a test configuration against a pre-computed reference and returns the
/// fidelity metrics together with the test run's trace.
pub fn evaluate_against_reference(
    model: &SurrogateModel,
    prompt: &[usize],
    config: GenerationConfig,
    reference: &GenerationOutput,
    cache: &mut dyn KvCacheBackend,
    faults: &mut dyn FaultInjector,
) -> (FidelityMetrics, DecodeTrace) {
    let test = run_with(
        model,
        prompt,
        config,
        Some(&reference.generated),
        cache,
        faults,
    );
    let mut acc = FidelityAccumulator::new();
    for (ref_probs, test_probs) in reference.step_probs.iter().zip(test.step_probs.iter()) {
        acc.record(ref_probs, test_probs);
    }
    (acc.finish(), test.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelKind, SurrogateDims};

    fn model() -> SurrogateModel {
        let config = ModelConfig::for_kind(ModelKind::Llama2_7b).with_surrogate(SurrogateDims {
            layers: 2,
            heads: 4,
            channels: 32,
            ffn_dim: 64,
            vocab: 64,
        });
        SurrogateModel::new(config, 21)
    }

    #[test]
    fn reference_run_produces_requested_tokens() {
        let m = model();
        let out = run_reference(&m, &[1, 2, 3, 4], GenerationConfig::greedy(6));
        assert_eq!(out.generated.len(), 6);
        assert_eq!(out.step_probs.len(), 6);
        assert_eq!(out.trace.steps(), 6);
        assert_eq!(out.trace.first_position(), Some(4));
        assert!(out.generated.iter().all(|&t| t < 64));
    }

    #[test]
    fn reference_vs_itself_is_perfect() {
        let m = model();
        let prompt = vec![5, 9, 13, 2];
        let config = GenerationConfig::greedy(5);
        let reference = run_reference(&m, &prompt, config);
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let (metrics, _) =
            evaluate_against_reference(&m, &prompt, config, &reference, &mut cache, &mut faults);
        assert_eq!(metrics.top1_agreement, 1.0);
        assert!(metrics.mean_kl < 1e-6);
    }

    #[test]
    fn trace_statistics_are_consistent() {
        let m = model();
        let out = run_reference(&m, &[1, 2, 3], GenerationConfig::greedy(4));
        assert_eq!(out.trace.final_evictions(), 0);
        assert!(out.trace.peak_entries() > 0);
        assert_eq!(out.trace.recompute_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "prompt must contain at least one token")]
    fn empty_prompt_panics() {
        let m = model();
        run_reference(&m, &[], GenerationConfig::greedy(1));
    }

    #[test]
    fn chained_prefill_decode_matches_one_shot() {
        let m = model();
        let config = GenerationConfig::greedy(6);
        let one_shot = run_reference(&m, &[7, 3, 11, 2, 9, 30], config);

        // Same run, driven incrementally: prompt split across two prefills.
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let mut state = GenerationState::new();
        prefill(&m, &mut state, &[7, 3, 11], &mut cache, &mut faults);
        prefill(&m, &mut state, &[2, 9, 30], &mut cache, &mut faults);
        assert_eq!(state.prefilled_tokens(), 6);
        let mut generated = Vec::new();
        for _ in 0..6 {
            generated.push(decode_step(&m, &mut state, None, &mut cache, &mut faults).token);
        }
        assert_eq!(generated, one_shot.generated);
        assert_eq!(state.decoded_tokens(), 6);
        assert_eq!(state.position(), 12);
    }

    #[test]
    fn state_reports_next_token_after_prefill() {
        let m = model();
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let mut state = GenerationState::new();
        assert_eq!(state.next_token(), None);
        assert!(!state.has_context());
        prefill(&m, &mut state, &[1, 2, 3], &mut cache, &mut faults);
        assert!(state.has_context());
        assert!(state.next_token().unwrap() < 64);
    }

    #[test]
    #[should_panic(expected = "requires pre-filled context")]
    fn decode_without_prefill_panics() {
        let m = model();
        let mut cache = FullKvCache::new();
        let mut faults = NoFaults;
        let mut state = GenerationState::new();
        decode_step(&m, &mut state, None, &mut cache, &mut faults);
    }
}
