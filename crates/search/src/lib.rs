//! # ic-search — the optimization-sequence space and search strategies
//!
//! Implements the machinery behind the paper's Fig. 2:
//!
//! * [`space::SequenceSpace`] — length-L sequences over a set of
//!   optimizations with the unroll-at-most-once constraint (footnote 1 of
//!   the paper), with dense indexing so the space can be enumerated,
//!   sampled, and plotted in the paper's (prefix, suffix) coordinates;
//! * [`exhaustive`] — full (rayon-parallel) enumeration, the ground truth
//!   for "within 5% of optimum" plots;
//! * [`random`] — uniform random search (the RANDOM baseline, averaged
//!   over independent trials);
//! * [`hillclimb`] — first-improvement local search with restarts;
//! * [`genetic`] — a Cooper-style GA over sequences;
//! * [`focused`] — model-guided search (the FOCUSSED line): a probability
//!   model fitted on *good sequences from other programs* proposes
//!   candidates (IID per-position or first-order Markov, à la Agakov et
//!   al. CGO'06).
//!
//! Strategies see programs only through the [`Evaluator`] trait (cost =
//! simulated cycles), so they are testable against synthetic landscapes.
//!
//! ## The evaluation engine
//!
//! Raw evaluations (compile + simulate) dominate search wall-clock, so
//! every strategy runs on top of a two-part engine:
//!
//! * [`cache::CachedEvaluator`] — a concurrent, transparent memo table
//!   in front of any evaluator, keyed by dense sequence index, with
//!   hit/miss/throughput stats and snapshot/warm persistence hooks;
//! * [`batch::BatchEvaluator`] — order-stable rayon fan-out of candidate
//!   batches, available on every evaluator via a blanket impl.
//!
//! The batched strategies (`random`, `focused`, `genetic`, `exhaustive`)
//! draw their candidates *before* evaluating, so batching never changes
//! the RNG stream: batched, cached, and plain sequential runs produce
//! bit-identical trajectories. Inherently sequential strategies
//! (`hillclimb`, `anneal`) pick each candidate from the previous cost
//! and stay serial, but still benefit from memoization when handed a
//! [`CachedEvaluator`].

pub mod anneal;
pub mod batch;
pub mod cache;
pub mod exhaustive;
pub mod focused;
pub mod genetic;
pub mod hillclimb;
pub mod obs;
pub mod random;
pub mod space;

pub use batch::BatchEvaluator;
pub use cache::{CacheStats, CachedEvaluator};
pub use obs::ObservedEvaluator;
pub use space::SequenceSpace;

use ic_passes::Opt;

/// Cost oracle for a sequence (lower is better; typically simulated
/// cycles). Must be `Sync` so exhaustive search can fan out with rayon.
pub trait Evaluator: Sync {
    /// Cost of compiling with `seq` and running the result.
    fn evaluate(&self, seq: &[Opt]) -> f64;
}

impl<F: Fn(&[Opt]) -> f64 + Sync> Evaluator for F {
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        self(seq)
    }
}

/// Outcome of a budgeted search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    pub best_seq: Vec<Opt>,
    pub best_cost: f64,
    /// `best_so_far[i]` = best cost after `i + 1` evaluations.
    pub best_so_far: Vec<f64>,
    /// Every evaluated `(sequence, cost)` pair in evaluation order — the
    /// "output of previous runs of pure search" the paper's knowledge
    /// base stores for model training (Sec. III-C).
    pub evaluated: Vec<(Vec<Opt>, f64)>,
}

impl SearchResult {
    /// Fold one evaluation into the running result.
    pub(crate) fn observe(&mut self, seq: &[Opt], cost: f64) {
        self.observe_as(seq, cost, true);
    }

    /// Fold one evaluation; only an `exact` cost may become the best.
    fn observe_as(&mut self, seq: &[Opt], cost: f64, exact: bool) {
        if exact && cost < self.best_cost {
            self.best_cost = cost;
            self.best_seq = seq.to_vec();
        }
        self.best_so_far.push(self.best_cost);
        self.evaluated.push((seq.to_vec(), cost));
    }

    /// An empty result (no evaluations yet, `best_cost` = +∞). Public so
    /// external engines (e.g. `ic-predict`'s predict-then-verify search
    /// drivers) can build results through the same observation logic the
    /// in-crate strategies use.
    pub fn new() -> Self {
        SearchResult {
            best_seq: Vec::new(),
            best_cost: f64::INFINITY,
            best_so_far: Vec::new(),
            evaluated: Vec::new(),
        }
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.best_so_far.len()
    }

    /// Fold a pre-evaluated batch into the result, in input order: the
    /// observation path of external batch engines that compute costs by
    /// other means (e.g. a learned cost model that only verifies the
    /// top-ranked candidates). Every `(cost, exact)` answer joins
    /// `evaluated`, but only exact ones may set `best_cost`, `best_seq`
    /// and `best_so_far`: a prediction is never the answer. An all-exact
    /// batch folds exactly like a simulate-everything run.
    pub fn observe_batch_verified(&mut self, seqs: &[Vec<Opt>], answers: &[(f64, bool)]) {
        debug_assert_eq!(seqs.len(), answers.len());
        for (seq, &(cost, exact)) in seqs.iter().zip(answers) {
            self.observe_as(seq, cost, exact);
        }
    }

    /// Batch-evaluate `seqs` (parallel, order-stable) and fold each
    /// outcome into the result in input order. The shared path of the
    /// batched strategies.
    pub(crate) fn observe_batch(&mut self, eval: &dyn Evaluator, seqs: &[Vec<Opt>]) {
        let costs = eval.evaluate_batch(seqs);
        for (seq, &cost) in seqs.iter().zip(&costs) {
            self.observe(seq, cost);
        }
    }
}

impl Default for SearchResult {
    fn default() -> Self {
        SearchResult::new()
    }
}

/// Deterministic synthetic cost landscapes. Public (not `cfg(test)`) so
/// integration tests and benches can search without a simulator.
pub mod testutil {
    use super::*;

    /// A deterministic synthetic landscape: cost depends on the sequence
    /// contents with a unique planted optimum.
    pub fn synthetic_cost(seq: &[Opt]) -> f64 {
        let mut cost = 1000.0;
        for (i, o) in seq.iter().enumerate() {
            // Reward Licm early, Schedule late, Dce anywhere.
            let pos = i as f64 / seq.len().max(1) as f64;
            cost -= match o {
                Opt::Licm => 40.0 * (1.0 - pos),
                Opt::Schedule => 40.0 * pos,
                Opt::Dce => 25.0,
                Opt::Unroll4 => 30.0,
                Opt::Unroll2 => 15.0,
                _ => 2.0,
            };
        }
        cost
    }
}
