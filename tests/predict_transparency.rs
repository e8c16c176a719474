//! Property test: [`PredictThenVerify`] at `verify_fraction = 1.0` is
//! bit-identical to the bare [`CachedEvaluator`] — same costs, same
//! search results, no predictions issued. This is the transparency
//! contract that makes predict-then-verify safe to thread everywhere:
//! turning the knob to 1.0 (or having no model) must be exactly the
//! plain cached search, not merely "close".
//!
//! Also pins memo purity at fractions < 1: predicted answers never
//! enter the cache, so later exact lookups still simulate.

use intelligent_compilers::passes::Opt;
use intelligent_compilers::predict::{encoding, CostModel, KnnRegressor};
use intelligent_compilers::predict::{PredictThenVerify, TrainedModel};
use intelligent_compilers::search::testutil::synthetic_cost;
use intelligent_compilers::search::{random, BatchEvaluator, CachedEvaluator, SequenceSpace};
use proptest::prelude::*;

fn space() -> SequenceSpace {
    SequenceSpace::new(&Opt::PAPER_13, 5)
}

/// A deterministic model with the right feature width — fit on a
/// handful of synthetic-cost rows so rankings are meaningful but the
/// test never depends on its accuracy.
fn toy_model(s: &SequenceSpace, feats: &[f64]) -> TrainedModel {
    let rows: Vec<Vec<f64>> = (0..40u64)
        .map(|i| encoding::row(feats, s, &s.decode(i * 997 % s.count())))
        .collect();
    let y: Vec<f64> = (0..40u64)
        .map(|i| {
            synthetic_cost(&s.decode(i * 997 % s.count()))
                .max(1.0)
                .log2()
        })
        .collect();
    let mut model = CostModel::Knn(KnnRegressor::new(5));
    model.fit(&rows, &y);
    TrainedModel {
        model,
        spearman: 0.0,
        rows: 40,
        feature_dim: rows[0].len(),
        version: 1,
    }
}

/// A model that ranks like [`toy_model`] but predicts every cost 16x
/// too low, so each prediction clamps to the batch's verified floor and
/// ties the verified best.
fn optimistic_model(s: &SequenceSpace, feats: &[f64]) -> TrainedModel {
    let rows: Vec<Vec<f64>> = (0..40u64)
        .map(|i| encoding::row(feats, s, &s.decode(i * 997 % s.count())))
        .collect();
    let y: Vec<f64> = (0..40u64)
        .map(|i| {
            synthetic_cost(&s.decode(i * 997 % s.count()))
                .max(1.0)
                .log2()
                - 4.0
        })
        .collect();
    let mut model = CostModel::Knn(KnnRegressor::new(5));
    model.fit(&rows, &y);
    TrainedModel {
        model,
        spearman: 0.0,
        rows: 40,
        feature_dim: rows[0].len(),
        version: 1,
    }
}

proptest! {
    /// Predictions never become answers: whatever the fraction, the
    /// best sequence's cost is the exact one in the memo table.
    #[test]
    fn only_verified_costs_set_the_best(
        seed in 0u64..u64::MAX,
        budget in 1usize..60,
        feats in prop::collection::vec(-4.0f64..4.0, 4),
    ) {
        let s = space();
        for fraction in [0.1, 0.25, 0.5, 1.0] {
            let cache = CachedEvaluator::new(s.clone(), synthetic_cost);
            let model = optimistic_model(&s, &feats);
            let ptv = PredictThenVerify::new(&cache, feats.clone(), Some(model), fraction);
            let r = intelligent_compilers::predict::run_random(&s, &ptv, budget, seed);
            prop_assert_eq!(cache.lookup(&r.best_seq), Some(r.best_cost), "fraction {}", fraction);
            for (i, &b) in r.best_so_far.iter().enumerate() {
                let seen = r.evaluated[..=i].iter().filter_map(|(q, _)| cache.lookup(q));
                prop_assert_eq!(b, seen.fold(f64::INFINITY, f64::min));
            }
        }
    }

    #[test]
    fn full_verification_is_bit_identical_per_batch(
        indices in prop::collection::vec(0u64..250_000, 1..120),
        feats in prop::collection::vec(-4.0f64..4.0, 4),
    ) {
        let s = space();
        let seqs: Vec<Vec<Opt>> = indices.iter().map(|&i| s.decode(i)).collect();

        let plain = CachedEvaluator::new(s.clone(), synthetic_cost);
        let plain_costs = BatchEvaluator::evaluate_batch(&plain, &seqs);

        let cache = CachedEvaluator::new(s.clone(), synthetic_cost);
        let model = toy_model(&s, &feats);
        let ptv = PredictThenVerify::new(&cache, feats, Some(model), 1.0);
        let costs = ptv.evaluate_batch(&seqs);

        prop_assert_eq!(costs, plain_costs, "fraction 1.0 must be exact");
        let ps = ptv.stats();
        prop_assert_eq!(ps.predicted, 0, "fraction 1.0 never predicts");
        prop_assert_eq!(cache.stats().hits, plain.stats().hits);
        prop_assert_eq!(cache.stats().misses, plain.stats().misses);
    }

    #[test]
    fn full_verification_search_is_bit_identical(
        seed in 0u64..u64::MAX,
        budget in 1usize..60,
        feats in prop::collection::vec(-4.0f64..4.0, 4),
    ) {
        let s = space();
        let plain_eval = CachedEvaluator::new(s.clone(), synthetic_cost);
        let plain = random::run(&s, &plain_eval, budget, seed);

        let cache = CachedEvaluator::new(s.clone(), synthetic_cost);
        let model = toy_model(&s, &feats);
        let ptv = PredictThenVerify::new(&cache, feats, Some(model), 1.0);
        let predicted = intelligent_compilers::predict::run_random(&s, &ptv, budget, seed);

        // The whole SearchResult must match: same candidate stream (the
        // RNG draws are shared), same costs, same trajectory.
        prop_assert_eq!(predicted.best_seq, plain.best_seq);
        prop_assert_eq!(predicted.best_cost, plain.best_cost);
        prop_assert_eq!(predicted.best_so_far, plain.best_so_far);
        prop_assert_eq!(predicted.evaluated, plain.evaluated);
    }

    #[test]
    fn no_model_bypasses_at_any_fraction(
        seed in 0u64..u64::MAX,
        budget in 1usize..60,
        fraction in 0.05f64..1.0,
    ) {
        let s = space();
        let plain_eval = CachedEvaluator::new(s.clone(), synthetic_cost);
        let plain = random::run(&s, &plain_eval, budget, seed);

        let cache = CachedEvaluator::new(s.clone(), synthetic_cost);
        let ptv = PredictThenVerify::new(&cache, vec![0.0; 4], None, fraction);
        let r = intelligent_compilers::predict::run_random(&s, &ptv, budget, seed);

        prop_assert_eq!(r.evaluated, plain.evaluated, "no model => plain search");
        let ps = ptv.stats();
        prop_assert_eq!(ps.predicted, 0);
        prop_assert!(ps.bypassed >= 1, "the batch must count as bypassed");
    }

    #[test]
    fn predictions_never_enter_the_memo(
        indices in prop::collection::vec(0u64..250_000, 8..120),
        feats in prop::collection::vec(-4.0f64..4.0, 4),
        fraction in 0.05f64..0.9,
    ) {
        let s = space();
        let seqs: Vec<Vec<Opt>> = indices.iter().map(|&i| s.decode(i)).collect();
        let cache = CachedEvaluator::new(s.clone(), synthetic_cost);
        let model = toy_model(&s, &feats);
        let ptv = PredictThenVerify::new(&cache, feats, Some(model), fraction);
        ptv.evaluate_batch(&seqs);
        let ps = ptv.stats();
        // Only verified candidates may have landed in the memo — and
        // every memoized cost must be the raw simulator's answer.
        prop_assert_eq!(cache.stats().entries as u64, ps.verified);
        for seq in &seqs {
            if let Some(c) = cache.lookup(seq) {
                prop_assert_eq!(c, synthetic_cost(seq), "memo holds only exact costs");
            }
        }
    }
}
