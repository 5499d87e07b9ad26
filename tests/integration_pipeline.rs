//! End-to-end integration tests spanning the whole stack: surrogate model →
//! cache policies → fault injection → engine → hardware model.

use kelle::cache::{AerpCache, CacheBudget, CachePolicy};
use kelle::model::generation::{evaluate_against_reference, run_reference};
use kelle::model::{
    fault::NoFaults, GenerationConfig, KvCacheBackend, ModelConfig, ModelKind, SurrogateModel,
};
use kelle::workloads::{TaskKind, TokenStreamGenerator};
use kelle::{EngineConfig, KelleEngine};

fn surrogate() -> SurrogateModel {
    SurrogateModel::new(ModelConfig::for_kind(ModelKind::Llama2_7b), 33)
}

#[test]
fn every_cache_policy_runs_through_the_model() {
    let model = surrogate();
    let generator = TokenStreamGenerator::new(model.dims().vocab, 5);
    let prompt = generator.prompt(TaskKind::Piqa, 0);
    let config = GenerationConfig::greedy(16);
    let reference = run_reference(&model, &prompt.tokens, config);

    let heads = model.dims().heads;
    let budget = CacheBudget::new(24)
        .with_recent_window(8)
        .with_sink_tokens(2);

    for policy in CachePolicy::all() {
        let mut cache = policy.build(budget, heads);
        let mut faults = NoFaults;
        let (metrics, trace) = evaluate_against_reference(
            &model,
            &prompt.tokens,
            config,
            &reference,
            cache.as_mut(),
            &mut faults,
        );
        assert_eq!(metrics.steps, 16, "policy {}", cache.name());
        assert!(metrics.mean_kl.is_finite(), "policy {}", cache.name());
        assert_eq!(trace.steps(), 16);
        // The uncompressed reference policy must reproduce the reference
        // exactly; quantized full retention stays mostly faithful; budgeted
        // policies may legitimately diverge once eviction bites, so only
        // finite metrics are required of them.
        match policy {
            CachePolicy::Full => {
                assert!(metrics.top1_agreement >= 0.99, "policy {}", cache.name())
            }
            CachePolicy::QuaRotInt4 => {
                assert!(metrics.top1_agreement > 0.0, "policy {}", cache.name())
            }
            _ => {}
        }
    }
}

#[test]
fn budgeted_policies_stay_within_budget_after_prefill() {
    let model = surrogate();
    let generator = TokenStreamGenerator::new(model.dims().vocab, 6);
    let prompt = generator.prompt(TaskKind::Qasper, 0);
    let heads = model.dims().heads;
    let layers = model.dims().layers;
    let budget = CacheBudget::new(16)
        .with_recent_window(4)
        .with_sink_tokens(2);

    let mut cache = AerpCache::new(budget, heads);
    let mut faults = NoFaults;
    let config = GenerationConfig::greedy(8);
    let reference = run_reference(&model, &prompt.tokens, config);
    evaluate_against_reference(
        &model,
        &prompt.tokens,
        config,
        &reference,
        &mut cache,
        &mut faults,
    );
    for layer in 0..layers {
        for head in 0..heads {
            assert!(
                cache.entries(layer, head).len() <= budget.max_tokens,
                "layer {layer} head {head} exceeds budget"
            );
        }
    }
    assert!(cache.stats().evictions > 0);
}

#[test]
fn engine_serves_multiple_models() {
    for kind in [
        ModelKind::Llama2_7b,
        ModelKind::Mistral7b,
        ModelKind::Opt6_7b,
    ] {
        let config = EngineConfig {
            model: kind,
            ..EngineConfig::default()
        };
        let engine = KelleEngine::new(config);
        let outcome = engine.serve_one(&[1, 2, 3, 4, 5], 6);
        assert_eq!(outcome.generated.len(), 6, "{kind:?}");
        assert!(outcome.hardware.total_energy_j() > 0.0);
    }
}

#[test]
fn aerp_uses_recompute_storage_and_model_recomputes() {
    let model = surrogate();
    let generator = TokenStreamGenerator::new(model.dims().vocab, 9);
    let prompt = generator.prompt(TaskKind::WikiText2, 0);
    let heads = model.dims().heads;
    let budget = CacheBudget::new(32)
        .with_recent_window(8)
        .with_sink_tokens(2);
    let mut cache = AerpCache::new(budget, heads);
    let mut faults = NoFaults;
    let config = GenerationConfig::greedy(12);
    let reference = run_reference(&model, &prompt.tokens, config);
    let (_, trace) = evaluate_against_reference(
        &model,
        &prompt.tokens,
        config,
        &reference,
        &mut cache,
        &mut faults,
    );
    // The popularity rule should have converted at least some tokens to
    // recompute storage, and the attention path must have exercised them.
    assert!(cache.stats().recompute_entries > 0);
    assert!(trace.recompute_fraction() > 0.0);
}
