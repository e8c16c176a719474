//! The predict-then-verify evaluation wrapper.
//!
//! [`PredictThenVerify`] sits where a bare [`CachedEvaluator`] would:
//! strategies hand it a candidate batch, it hands back costs. The
//! difference is *which* candidates get simulated. With a model
//! installed and `verify_fraction < 1.0`, the batch is answered as:
//!
//! 1. **probe** — candidates already in the exact memo table answer
//!    from it (free, exact);
//! 2. **rank** — the cost model scores the remaining unknowns;
//! 3. **verify** — only the top `verify_fraction` of unknowns (the
//!    predicted-cheapest, at least one) are simulated, through the
//!    inner cache so the results memoize;
//! 4. **predict** — the rest answer with the model's cycles estimate,
//!    clamped to be no better than the cheapest verified/known cost of
//!    the batch, so optimistic guesses do not outrank evidence when a
//!    strategy steers by them.
//!
//! Predictions never become answers: the search drivers here fold each
//! batch with [`SearchResult::observe_batch_verified`], so only exact,
//! memo-backed costs set `best_cost`, `best_seq` and `best_so_far`.
//!
//! Predictions are **never** written into the inner memo table (and so
//! never flushed to the knowledge base) — the exact cache stays exact.
//!
//! Bypass conditions (the batch is simulated in full, bit-identically
//! to the bare cached evaluator): no model installed,
//! `verify_fraction >= 1.0`, or the model's feature width disagreeing with
//! this wrapper's rows. Sequential probes via [`Evaluator::evaluate`]
//! always pass straight through.

use crate::encoding;
use crate::train::TrainedModel;
use ic_obs::PredictStats;
use ic_passes::Opt;
use ic_search::{BatchEvaluator, CachedEvaluator, Evaluator, SearchResult, SequenceSpace};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct PredictThenVerify<'a, E: Evaluator> {
    inner: &'a CachedEvaluator<E>,
    /// Characterization features of the program under search — the
    /// constant program block of every prediction row.
    program_features: Vec<f64>,
    model: RwLock<Option<TrainedModel>>,
    verify_fraction: f64,
    batches: AtomicU64,
    bypassed: AtomicU64,
    candidates: AtomicU64,
    verified: AtomicU64,
    predicted: AtomicU64,
    retrains: AtomicU64,
}

impl<'a, E: Evaluator> PredictThenVerify<'a, E> {
    /// Wrap `inner` (borrowed — the exact cache outlives the wrapper,
    /// so long-lived owners like the daemon's engines keep their memo
    /// table). `verify_fraction` is clamped to `(0, 1]`; `model: None`
    /// starts in bypass until [`Self::install_model`].
    pub fn new(
        inner: &'a CachedEvaluator<E>,
        program_features: Vec<f64>,
        model: Option<TrainedModel>,
        verify_fraction: f64,
    ) -> Self {
        PredictThenVerify {
            inner,
            program_features,
            model: RwLock::new(model),
            verify_fraction: if verify_fraction > 0.0 {
                verify_fraction.min(1.0)
            } else {
                1.0
            },
            batches: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            predicted: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
        }
    }

    /// The wrapped exact evaluator.
    pub fn inner(&self) -> &CachedEvaluator<E> {
        self.inner
    }

    pub fn verify_fraction(&self) -> f64 {
        self.verify_fraction
    }

    /// Install (or replace) the model — the online-refresh hook.
    /// Counts as a retrain in [`Self::stats`].
    pub fn install_model(&self, model: TrainedModel) {
        *self.model.write() = Some(model);
        self.retrains.fetch_add(1, Ordering::Relaxed);
    }

    /// Version of the installed model, 0 when none.
    pub fn model_version(&self) -> u64 {
        self.model.read().as_ref().map_or(0, |m| m.version)
    }

    pub fn has_model(&self) -> bool {
        self.model.read().is_some()
    }

    /// Counters for the observability snapshot.
    pub fn stats(&self) -> PredictStats {
        let (model_version, training_rows) = {
            let g = self.model.read();
            g.as_ref().map_or((0, 0), |m| (m.version, m.rows))
        };
        PredictStats {
            batches: self.batches.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            predicted: self.predicted.load(Ordering::Relaxed),
            retrains: self.retrains.load(Ordering::Relaxed),
            model_version,
            training_rows,
        }
    }

    fn expected_dim(&self) -> usize {
        self.program_features.len() + encoding::seq_dim(self.inner.space())
    }

    /// Answer a candidate batch. This is an *inherent* method: on a
    /// concrete `PredictThenVerify` it shadows the blanket
    /// [`BatchEvaluator::evaluate_batch`] (which would simulate
    /// everything through `Evaluator::evaluate`), so strategies that
    /// call `wrapper.evaluate_batch(..)` get prediction while the
    /// trait-object path stays exact.
    pub fn evaluate_batch(&self, seqs: &[Vec<Opt>]) -> Vec<f64> {
        self.answer(seqs).into_iter().map(|(c, _)| c).collect()
    }

    /// [`Self::evaluate_batch`] with each cost flagged `true` when it is
    /// exact (memo-backed or just simulated) and `false` when it is a
    /// model prediction.
    pub(crate) fn answer(&self, seqs: &[Vec<Opt>]) -> Vec<(f64, bool)> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(seqs.len() as u64, Ordering::Relaxed);

        let guard = self.model.read();
        let usable = guard
            .as_ref()
            .filter(|m| m.feature_dim == self.expected_dim());
        let (Some(model), true) = (usable, self.verify_fraction < 1.0) else {
            drop(guard);
            self.bypassed.fetch_add(1, Ordering::Relaxed);
            self.verified
                .fetch_add(seqs.len() as u64, Ordering::Relaxed);
            let costs = BatchEvaluator::evaluate_batch(self.inner, seqs);
            return costs.into_iter().map(|c| (c, true)).collect();
        };

        // 1. Probe the exact memo; collect distinct unknown sequences.
        let probed: Vec<Option<f64>> = seqs.iter().map(|s| self.inner.lookup(s)).collect();
        let mut resolved: HashMap<&[Opt], f64> = HashMap::new();
        let mut unknown: Vec<&[Opt]> = Vec::new();
        for (seq, cost) in seqs.iter().zip(&probed) {
            match cost {
                Some(c) => {
                    resolved.insert(seq.as_slice(), *c);
                }
                None => {
                    if !resolved.contains_key(seq.as_slice()) && !unknown.contains(&seq.as_slice())
                    {
                        unknown.push(seq.as_slice());
                    }
                }
            }
        }

        // 2. Rank unknowns by predicted cycles (stable: ties keep draw
        // order, so identical inputs give identical verify sets).
        let space = self.inner.space();
        let mut ranked: Vec<(f64, &[Opt])> = unknown
            .iter()
            .map(|&s| {
                let row = encoding::row(&self.program_features, space, s);
                (model.model.predict_cycles(&row), s)
            })
            .collect();
        drop(guard);
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));

        // 3. Verify the predicted-cheapest slice through the inner cache.
        let n_verify = if ranked.is_empty() {
            0
        } else {
            ((self.verify_fraction * ranked.len() as f64).ceil() as usize).clamp(1, ranked.len())
        };
        let verify_seqs: Vec<Vec<Opt>> = ranked[..n_verify]
            .iter()
            .map(|&(_, s)| s.to_vec())
            .collect();
        let verify_costs = BatchEvaluator::evaluate_batch(self.inner, &verify_seqs);
        self.verified.fetch_add(n_verify as u64, Ordering::Relaxed);
        self.predicted
            .fetch_add((ranked.len() - n_verify) as u64, Ordering::Relaxed);
        for (&(_, s), &c) in ranked[..n_verify].iter().zip(&verify_costs) {
            resolved.insert(s, c);
        }

        // 4. Predictions answer the rest, clamped to the batch's best
        // verified/known cost so a guess never becomes the best-so-far.
        let floor = resolved
            .values()
            .copied()
            .filter(|c| c.is_finite())
            .fold(f64::INFINITY, f64::min);
        let mut predicted: HashMap<&[Opt], f64> = HashMap::new();
        for &(pred, s) in &ranked[n_verify..] {
            let cost = if floor.is_finite() {
                pred.max(floor)
            } else {
                pred
            };
            predicted.insert(s, cost);
        }

        seqs.iter()
            .map(|s| match resolved.get(s.as_slice()) {
                Some(&c) => (c, true),
                None => (predicted[s.as_slice()], false),
            })
            .collect()
    }
}

impl<E: Evaluator> Evaluator for PredictThenVerify<'_, E> {
    /// Single probes pass straight through to the exact cache —
    /// sequential strategies (hill climbing, annealing) need true
    /// costs to steer, and a lone candidate is its own top fraction.
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        self.inner.evaluate(seq)
    }
}

/// Mirror of `ic_search::random::run` over a predict-then-verify
/// wrapper: identical seed ⇒ identical candidate draws; with
/// `verify_fraction = 1.0` (or no model) the trajectory is
/// bit-identical to the plain cached run.
pub fn run_random<E: Evaluator>(
    space: &SequenceSpace,
    ptv: &PredictThenVerify<'_, E>,
    budget: usize,
    seed: u64,
) -> SearchResult {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let seqs: Vec<_> = (0..budget).map(|_| space.sample(&mut rng)).collect();
    let mut result = SearchResult::new();
    result.observe_batch_verified(&seqs, &ptv.answer(&seqs));
    result
}

/// Mirror of `ic_search::focused::run` (FOCUSSED with predicted
/// pre-ranking): the sequence model proposes, the cost model triages,
/// the simulator verifies the shortlist.
pub fn run_focused<E: Evaluator>(
    ptv: &PredictThenVerify<'_, E>,
    budget: usize,
    model: &ic_search::focused::SequenceModel,
    seed: u64,
) -> SearchResult {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let seqs: Vec<_> = (0..budget).map(|_| model.sample(&mut rng)).collect();
    let mut result = SearchResult::new();
    result.observe_batch_verified(&seqs, &ptv.answer(&seqs));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{select_and_train, TrainingSet};
    use ic_kb::{EvalCacheRecord, KnowledgeBase, ProgramRecord};
    use ic_search::testutil::synthetic_cost;
    use std::sync::atomic::AtomicUsize;

    fn space() -> SequenceSpace {
        SequenceSpace::new(&Opt::PAPER_13, 5)
    }

    struct Counting {
        calls: AtomicUsize,
    }

    impl Evaluator for Counting {
        fn evaluate(&self, seq: &[Opt]) -> f64 {
            self.calls.fetch_add(1, Ordering::SeqCst);
            synthetic_cost(seq)
        }
    }

    fn counting_cache() -> CachedEvaluator<Counting> {
        CachedEvaluator::new(
            space(),
            Counting {
                calls: AtomicUsize::new(0),
            },
        )
    }

    /// Train a usable model on the synthetic landscape (no program
    /// features: the program block is empty, rows are pure sequence).
    fn trained() -> TrainedModel {
        let s = space();
        let mut kb = KnowledgeBase::new();
        for p in 0..3u64 {
            let name = format!("p{p}");
            kb.upsert_program(ProgramRecord {
                program: name.clone(),
                feature_names: vec![],
                features: vec![],
                suite: None,
            });
            let entries: Vec<(u64, f64)> = (0..60)
                .map(|k| {
                    let idx = (k * 7919 + p * 37) % s.count();
                    (idx, synthetic_cost(&s.decode(idx)))
                })
                .collect();
            kb.eval_caches.push(EvalCacheRecord {
                context: format!("{name}@m#{p:016x}"),
                entries,
            });
        }
        let ts = TrainingSet::assemble(&kb, &s);
        select_and_train(&ts, 3).expect("trains")
    }

    #[test]
    fn bypass_paths_simulate_everything() {
        let s = space();
        let seqs: Vec<Vec<Opt>> = (0..20).map(|i| s.decode(i * 999)).collect();
        // No model.
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], None, 0.25);
        let costs = ptv.evaluate_batch(&seqs);
        assert_eq!(ptv.inner().inner().calls.load(Ordering::SeqCst), 20);
        for (seq, c) in seqs.iter().zip(&costs) {
            assert_eq!(*c, synthetic_cost(seq));
        }
        let st = ptv.stats();
        assert_eq!(st.bypassed, 1);
        assert_eq!(st.verified, 20);
        assert_eq!(st.predicted, 0);

        // Fraction 1.0 with a model.
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 1.0);
        ptv.evaluate_batch(&seqs);
        assert_eq!(ptv.inner().inner().calls.load(Ordering::SeqCst), 20);
        assert_eq!(ptv.stats().bypassed, 1);

        // Feature-width mismatch bypasses rather than mispredicting.
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![1.0, 2.0], Some(trained()), 0.25);
        ptv.evaluate_batch(&seqs);
        assert_eq!(ptv.inner().inner().calls.load(Ordering::SeqCst), 20);
        assert_eq!(ptv.stats().bypassed, 1);
    }

    #[test]
    fn partial_verification_simulates_only_the_top_fraction() {
        let s = space();
        let seqs: Vec<Vec<Opt>> = (0..40).map(|i| s.decode(i * 4001)).collect();
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 0.25);
        let costs = ptv.evaluate_batch(&seqs);
        assert_eq!(costs.len(), 40);
        let raw = ptv.inner().inner().calls.load(Ordering::SeqCst);
        assert_eq!(raw, 10, "ceil(0.25 * 40) simulations");
        let st = ptv.stats();
        assert_eq!(st.verified, 10);
        assert_eq!(st.predicted, 30);
        assert_eq!(st.bypassed, 0);
        assert!((st.savings_factor() - 4.0).abs() < 1e-9);

        // Verified candidates carry exact costs.
        let exact = seqs
            .iter()
            .zip(&costs)
            .filter(|(seq, &c)| c == synthetic_cost(seq))
            .count();
        assert!(exact >= 10);

        // The clamp: no predicted cost undercuts the batch's best
        // verified cost.
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let best_seq = &seqs[costs.iter().position(|&c| c == best).unwrap()];
        assert_eq!(
            best,
            synthetic_cost(best_seq),
            "best is verified, not a guess"
        );
    }

    #[test]
    fn known_costs_answer_from_the_memo() {
        let s = space();
        let seqs: Vec<Vec<Opt>> = (0..30).map(|i| s.decode(i * 1237)).collect();
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 0.2);
        // Warm every candidate into the exact memo first.
        for seq in &seqs {
            ptv.inner().evaluate(seq);
        }
        let before = ptv.inner().inner().calls.load(Ordering::SeqCst);
        let costs = ptv.evaluate_batch(&seqs);
        assert_eq!(
            ptv.inner().inner().calls.load(Ordering::SeqCst),
            before,
            "fully-known batch simulates nothing"
        );
        for (seq, c) in seqs.iter().zip(&costs) {
            assert_eq!(*c, synthetic_cost(seq), "exact answers");
        }
        let st = ptv.stats();
        assert_eq!(st.verified, 0);
        assert_eq!(st.predicted, 0);
    }

    #[test]
    fn predictions_never_enter_the_exact_memo() {
        let s = space();
        let seqs: Vec<Vec<Opt>> = (0..40).map(|i| s.decode(i * 4001)).collect();
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 0.25);
        ptv.evaluate_batch(&seqs);
        assert_eq!(ptv.inner().len(), 10, "memo holds only the verified slice");
        let snap = ptv.inner().snapshot();
        for (idx, cost) in snap {
            assert_eq!(cost, synthetic_cost(&s.decode(idx)), "memo stays exact");
        }
    }

    #[test]
    fn duplicate_candidates_resolve_consistently() {
        let s = space();
        let mut seqs: Vec<Vec<Opt>> = (0..10).map(|i| s.decode(i * 11)).collect();
        seqs.extend((0..10).map(|i| s.decode(i * 11))); // every candidate twice
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 0.3);
        let costs = ptv.evaluate_batch(&seqs);
        for i in 0..10 {
            assert_eq!(costs[i], costs[i + 10], "duplicates share one answer");
        }
        assert_eq!(
            ptv.inner().inner().calls.load(Ordering::SeqCst),
            3,
            "ceil(0.3 * 10 uniques)"
        );
    }

    #[test]
    fn run_mirrors_are_bit_identical_at_full_verification() {
        let s = space();
        let cache = counting_cache();
        let plain = ic_search::random::run(&s, &cache, 50, 42);

        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], Some(trained()), 1.0);
        let mirrored = run_random(&s, &ptv, 50, 42);
        assert_eq!(plain.best_so_far, mirrored.best_so_far);
        assert_eq!(plain.evaluated, mirrored.evaluated);
        assert_eq!(plain.best_seq, mirrored.best_seq);
    }

    #[test]
    fn install_model_counts_a_retrain_and_updates_version() {
        let cache = counting_cache();
        let ptv = PredictThenVerify::new(&cache, vec![], None, 0.5);
        assert!(!ptv.has_model());
        assert_eq!(ptv.model_version(), 0);
        let mut m = trained();
        m.version = 7;
        ptv.install_model(m);
        assert!(ptv.has_model());
        assert_eq!(ptv.model_version(), 7);
        let st = ptv.stats();
        assert_eq!(st.retrains, 1);
        assert_eq!(st.model_version, 7);
        assert!(st.training_rows > 0);
    }
}
