//! The intelligent optimization controller (Sec. III-A).
//!
//! Ties the stack together: compiles workloads through `ic-passes`,
//! evaluates them on the `ic-machine` simulator, characterizes programs
//! and architectures into the `ic-kb` knowledge base, and drives either
//! *one-shot* compilation (model predicts a sequence, no trials) or
//! *iterative* compilation (model focuses a budgeted search).

use ic_features::{combined_feature_names, combined_features, static_features};
use ic_kb::{ArchRecord, ExperimentRecord, KnowledgeBase, ProgramRecord};
use ic_machine::{
    microbench, simulate_decoded, simulate_default, simulate_legacy, DecodeCache,
    DecodeCacheConfig, MachineConfig, Memory, PerfCounters, RunResult, SimError,
};
use ic_obs::{Histogram, Registry, SimStats};
use ic_passes::{apply_sequence, CompileCacheStats, Opt, PrefixCache, PrefixCacheConfig};
use ic_search::focused::{ModelKind, SequenceModel};
use ic_search::{
    focused, random, CacheStats, CachedEvaluator, Evaluator, SearchResult, SequenceSpace,
};
use ic_workloads::Workload;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The intelligent compiler for one target machine.
pub struct IntelligentCompiler {
    pub config: MachineConfig,
    pub kb: KnowledgeBase,
    /// The sequence space searched/predicted over. `Arc`-shared so every
    /// [`CachedEvaluator`] built per search borrows the same allocation
    /// instead of deep-cloning the space.
    pub space: Arc<SequenceSpace>,
    /// Observability registry: every methodology step records a
    /// `controller.*` span here, so callers can see where a compilation
    /// spent its time ([`Registry::snapshot`]). Cheap-clone; share it
    /// with a wider registry to aggregate across compilers.
    pub obs: Registry,
}

/// A cost evaluator that compiles a fixed workload with a sequence and
/// runs it on a machine config. Cost = simulated cycles.
///
/// Compilation goes through a [`PrefixCache`]: sequences sharing a
/// pipeline prefix reuse the cached post-prefix module instead of
/// re-running the shared passes (and the unoptimized module is never
/// deep-cloned when a cached prefix exists). Results are bit-identical
/// to compiling each sequence from scratch.
///
/// Owns its machine configuration (a clone of the one passed to
/// [`Self::new`]) so the evaluator is `'static`: long-lived services
/// (`ic-serve`) keep one per workload+machine context in an `Arc` shared
/// across connections.
pub struct WorkloadEvaluator {
    cache: PrefixCache,
    /// Memoized module → [`ic_machine::DecodedProgram`] lowering, shared
    /// across every evaluation this evaluator runs. Sequences whose
    /// pipelines converge on structurally identical IR (very common in a
    /// small pass space) decode once and simulate many times.
    decode: DecodeCache,
    config: MachineConfig,
    fuel: u64,
    /// Total wall nanoseconds spent inside the simulator (decode + run).
    sim_nanos: AtomicU64,
    /// Total instructions retired across every successful simulation.
    insts_simulated: AtomicU64,
    /// Per-evaluation sim-time distribution. A private histogram by
    /// default; [`Self::attach_obs`] swaps in the registry's `sim.nanos`
    /// handle so the numbers land in the unified [`ic_obs::Snapshot`].
    sim_hist: Histogram,
}

impl WorkloadEvaluator {
    /// Build an evaluator for `workload` on `config`.
    pub fn new(workload: &Workload, config: &MachineConfig) -> Self {
        Self::with_compile_budget(workload, config, PrefixCacheConfig::default())
    }

    /// Like [`Self::new`] but with an explicit compile-cache byte budget.
    pub fn with_compile_budget(
        workload: &Workload,
        config: &MachineConfig,
        cache_config: PrefixCacheConfig,
    ) -> Self {
        Self::with_profiler(workload, config, cache_config, None)
    }

    /// Like [`Self::with_compile_budget`], optionally recording every
    /// pass the compile cache actually runs into a per-pass profiler
    /// (see [`ic_passes::profiler`]). Profiling is observation-only:
    /// compiled IR and costs are bit-identical either way.
    pub fn with_profiler(
        workload: &Workload,
        config: &MachineConfig,
        cache_config: PrefixCacheConfig,
        profiler: Option<ic_passes::PassProfiler>,
    ) -> Self {
        WorkloadEvaluator {
            cache: PrefixCache::with_profiler(workload.compile(), cache_config, profiler),
            decode: DecodeCache::new(DecodeCacheConfig::default()),
            config: config.clone(),
            fuel: workload.fuel,
            sim_nanos: AtomicU64::new(0),
            insts_simulated: AtomicU64::new(0),
            sim_hist: Histogram::new(),
        }
    }

    /// Record per-evaluation simulation time into `registry`'s
    /// `sim.nanos` histogram (in addition to the evaluator's own totals).
    /// Call before sharing the evaluator; observation-only.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.sim_hist = registry.histogram("sim.nanos");
    }

    /// The per-pass profiler attached to the compile cache, if any.
    pub fn profiler(&self) -> Option<&ic_passes::PassProfiler> {
        self.cache.profiler()
    }

    /// Cycles of the unoptimized build.
    pub fn baseline_cycles(&self) -> u64 {
        self.run_module(self.cache.base())
            .expect("baseline run")
            .cycles()
    }

    /// Compile with `seq` (reusing any cached pipeline prefix) and run;
    /// full result.
    pub fn run(&self, seq: &[Opt]) -> Result<RunResult, SimError> {
        let (m, _changed) = self.cache.apply_cached(seq);
        self.run_module(&m)
    }

    /// Simulate one compiled module on the decoded tier through the
    /// shared [`DecodeCache`], timing the evaluation. `IC_SIM_LEGACY=1`
    /// routes through the tree-walking oracle instead (still timed).
    fn run_module(&self, m: &ic_ir::Module) -> Result<RunResult, SimError> {
        let t0 = Instant::now();
        let result = if ic_machine::legacy_forced() {
            simulate_legacy(m, &self.config, Memory::for_module(m), self.fuel)
        } else {
            let prog = self.decode.get_or_decode(m, &self.config);
            simulate_decoded(&prog, &self.config, Memory::for_module(m), self.fuel)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.sim_nanos.fetch_add(ns, Ordering::Relaxed);
        self.sim_hist.record(ns);
        if let Ok(r) = &result {
            self.insts_simulated.fetch_add(
                r.counters.get(ic_machine::Counter::TOT_INS),
                Ordering::Relaxed,
            );
        }
        result
    }

    /// Simulator-side statistics: decode-cache counters plus total sim
    /// wall time and instructions retired (for insts/sec).
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            decode: self.decode.stats(),
            sim_nanos: self.sim_nanos.load(Ordering::Relaxed),
            insts_simulated: self.insts_simulated.load(Ordering::Relaxed),
        }
    }

    /// Compile with `seq` (through the prefix cache) without running:
    /// the optimized module and how many passes changed it. Used by
    /// services that need the IR itself (e.g. `ic-serve` `emit_ir`).
    pub fn compile(&self, seq: &[Opt]) -> (ic_ir::Module, usize) {
        self.cache.apply_cached(seq)
    }

    /// Prefix-compilation-cache counters (hits, misses, passes elided).
    pub fn compile_stats(&self) -> CompileCacheStats {
        self.cache.stats()
    }
}

impl Evaluator for WorkloadEvaluator {
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        match self.run(seq) {
            Ok(r) => r.cycles() as f64,
            // A sequence that makes the program exceed its fuel budget (or
            // otherwise fail) is maximally bad, not an error: searches
            // must be able to step on mines and keep going.
            Err(_) => f64::INFINITY,
        }
    }
}

impl IntelligentCompiler {
    /// A fresh intelligent compiler for `config` with an empty knowledge
    /// base and the paper's 13-opt length-5 sequence space.
    pub fn new(config: MachineConfig) -> Self {
        IntelligentCompiler {
            config,
            kb: KnowledgeBase::new(),
            space: Arc::new(SequenceSpace::paper()),
            obs: Registry::new(),
        }
    }

    /// Characterize the target architecture by microbenchmarks and store
    /// it in the knowledge base (Sec. III-B).
    pub fn characterize_architecture(&mut self) {
        let _span = self.obs.span("controller.characterize_architecture");
        let ch = microbench::characterize(&self.config, 2048);
        self.kb.upsert_arch(ArchRecord {
            arch: self.config.name.clone(),
            feature_names: microbench::ArchCharacterization::feature_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            features: ch.feature_vector(),
        });
    }

    /// Compile `workload` unoptimized and profile it: returns the -O0
    /// counters and stores the program's combined characterization.
    pub fn characterize_program(&mut self, workload: &Workload) -> PerfCounters {
        let _span = self.obs.span("controller.characterize_program");
        let module = workload.compile();
        let r = simulate_default(&module, &self.config, workload.fuel).expect("O0 run");
        self.kb.upsert_program(ProgramRecord {
            program: workload.name.clone(),
            feature_names: combined_feature_names(),
            features: combined_features(&module, &r.counters),
            suite: workload.meta.as_ref().map(|m| ic_kb::SuiteMetaRecord {
                family: m.family.clone(),
                seed: m.seed,
                size_class: m.size_class.clone(),
                generated: m.generated,
            }),
        });
        r.counters
    }

    /// Run `trials` random-sequence experiments for `workload`, recording
    /// every outcome in the knowledge base. This is the "pure search"
    /// whose output trains the prediction models (Sec. III-C).
    pub fn populate_kb(&mut self, workload: &Workload, trials: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let _span = self.obs.span("controller.populate_kb");
        let eval = self.evaluator(workload);
        let base = eval.baseline_cycles() as f64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let seqs: Vec<Vec<Opt>> = (0..trials).map(|_| self.space.sample(&mut rng)).collect();
        type Outcome = (Vec<Opt>, f64, Vec<(String, u64)>);
        // Hand the trials to rayon in lexicographic order so sequences
        // sharing a pipeline prefix land on the same worker back-to-back
        // (prefix-cache locality), then scatter outcomes back so the
        // recorded experiments keep the RNG's sample order.
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_unstable_by(|&a, &b| seqs[a].cmp(&seqs[b]));
        let evaluated: Vec<(usize, Outcome)> = order
            .into_par_iter()
            .map(|i| {
                let seq = seqs[i].clone();
                let outcome = match eval.run(&seq) {
                    Ok(r) => {
                        let counters: Vec<(String, u64)> = ic_machine::Counter::ALL
                            .iter()
                            .map(|c| (c.name().to_string(), r.counters.get(*c)))
                            .collect();
                        (seq, r.cycles() as f64, counters)
                    }
                    Err(_) => (seq, f64::INFINITY, Vec::new()),
                };
                (i, outcome)
            })
            .collect();
        let mut outcomes: Vec<Option<Outcome>> = (0..seqs.len()).map(|_| None).collect();
        for (i, outcome) in evaluated {
            outcomes[i] = Some(outcome);
        }
        let outcomes: Vec<Outcome> = outcomes
            .into_iter()
            .map(|o| o.expect("all slots"))
            .collect();
        // Write the measured costs through to the persisted evaluation
        // cache so later searches in the same context start warm (failed
        // compilations persist as INFINITY and are skipped too).
        let ctx = crate::evalcache::context_fingerprint(workload, &self.config);
        let cached: Vec<(u64, f64)> = outcomes
            .iter()
            .filter_map(|(seq, cycles, _)| self.space.encode(seq).map(|i| (i, *cycles)))
            .collect();
        self.kb.merge_eval_cache(&ctx, cached);
        // One allocation per name for the whole run; records share it.
        let program: Arc<str> = Arc::from(workload.name.as_str());
        let arch: Arc<str> = Arc::from(self.config.name.as_str());
        for (seq, cycles, counters) in outcomes {
            if !cycles.is_finite() {
                continue;
            }
            self.kb.add_experiment(ExperimentRecord {
                program: program.clone(),
                arch: arch.clone(),
                sequence: seq.iter().map(|o| o.name().to_string()).collect(),
                cycles: cycles as u64,
                speedup: base / cycles,
                counters,
            });
        }
    }

    /// Populate the knowledge base from a *search* run (genetic) instead
    /// of uniform sampling: the recorded experiments concentrate on good
    /// regions of the space, which is what the Agakov-style focused model
    /// needs as training data ("the output of previous runs of pure
    /// search", Sec. III-C). Records every evaluated sequence.
    pub fn populate_kb_search(&mut self, workload: &Workload, budget: usize, seed: u64) {
        let _span = self.obs.span("controller.populate_kb_search");
        let ctx = crate::evalcache::context_fingerprint(workload, &self.config);
        let eval = CachedEvaluator::new(self.space.clone(), self.evaluator(workload));
        crate::evalcache::warm_from_kb(&eval, &self.kb, &ctx);
        let base = eval.inner().baseline_cycles() as f64;
        let r = ic_search::genetic::run(
            &self.space,
            &eval,
            budget,
            &ic_search::genetic::GaConfig::default(),
            seed,
        );
        crate::evalcache::flush_to_kb(&eval, &mut self.kb, &ctx);
        let program: Arc<str> = Arc::from(workload.name.as_str());
        let arch: Arc<str> = Arc::from(self.config.name.as_str());
        for (seq, cycles) in r.evaluated {
            if !cycles.is_finite() {
                continue;
            }
            self.kb.add_experiment(ExperimentRecord {
                program: program.clone(),
                arch: arch.clone(),
                sequence: seq.iter().map(|o| o.name().to_string()).collect(),
                cycles: cycles as u64,
                speedup: base / cycles,
                counters: Vec::new(),
            });
        }
    }

    /// Fit the focused-search model for `workload` from the knowledge
    /// base: good sequences of the `neighbors` most similar *other*
    /// programs (leave-the-target-out by construction).
    pub fn focused_model(
        &self,
        workload: &Workload,
        neighbors: usize,
        per_program: usize,
        kind: ModelKind,
    ) -> Option<SequenceModel> {
        let _span = self.obs.span("controller.focused_model");
        let module = workload.compile();
        let mut feats = static_features(&module);
        // Compare on the static prefix only (dynamic features of the new
        // program may not be profiled yet); pad to stored length.
        let stored_len = self.kb.programs.first()?.features.len();
        feats.resize(stored_len, 0.0);
        let near = self.kb.nearest_programs(&feats, &workload.name);
        let mut good: Vec<Vec<Opt>> = Vec::new();
        for p in near.iter().take(neighbors) {
            for e in self.kb.top_k(&p.program, &self.config.name, per_program) {
                let seq: Option<Vec<Opt>> = e.sequence.iter().map(|s| Opt::from_name(s)).collect();
                if let Some(seq) = seq {
                    good.push(seq);
                }
            }
        }
        if good.is_empty() {
            return None;
        }
        Some(SequenceModel::fit(&self.space, &good, 0.25, kind))
    }

    /// One-shot intelligent compilation: predict a sequence without any
    /// trial runs (the mode Fig. 1 calls "generate a program executable
    /// in one trial"). Uses the focused model's most likely draw.
    pub fn compile_one_shot(&self, workload: &Workload) -> (ic_ir::Module, Vec<Opt>) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let _span = self.obs.span("controller.compile_one_shot");
        let seq = match self.focused_model(workload, 3, 5, ModelKind::Markov) {
            Some(model) => {
                // Most-likely-of-32-draws: cheap mode of the distribution.
                let mut rng = SmallRng::seed_from_u64(0x1C0);
                (0..32)
                    .map(|_| model.sample(&mut rng))
                    .max_by(|a, b| model.log_prob(a).partial_cmp(&model.log_prob(b)).unwrap())
                    .unwrap()
            }
            None => ic_passes::ofast_sequence(),
        };
        let mut m = workload.compile();
        apply_sequence(&mut m, &seq);
        (m, seq)
    }

    /// Iterative compilation with model focus: `budget` evaluations
    /// sampled from the focused model (falls back to random search with
    /// an empty knowledge base). Runs through an in-memory
    /// [`CachedEvaluator`] so repeated model draws of the same sequence
    /// are simulated once; use [`Self::compile_iterative_cached`] to also
    /// warm from / persist to the knowledge base.
    pub fn compile_iterative(&self, workload: &Workload, budget: usize, seed: u64) -> SearchResult {
        let _span = self.obs.span("controller.compile_iterative");
        let eval = CachedEvaluator::new(self.space.clone(), self.evaluator(workload));
        self.run_focused_or_random(workload, &eval, budget, seed)
    }

    /// Iterative compilation backed by the knowledge base's persisted
    /// evaluation cache: warms the memo table from any prior runs in the
    /// same (workload, machine) context, searches, then writes the new
    /// costs back. Returns the search result together with the cache
    /// statistics (hits, misses = raw simulations, throughput) for
    /// harness reporting. The trajectory is bit-identical to
    /// [`Self::compile_iterative`] — warming changes how many raw
    /// simulations run, never what the search observes.
    pub fn compile_iterative_cached(
        &mut self,
        workload: &Workload,
        budget: usize,
        seed: u64,
    ) -> (SearchResult, CacheStats) {
        let _span = self.obs.span("controller.compile_iterative_cached");
        let ctx = crate::evalcache::context_fingerprint(workload, &self.config);
        let eval = CachedEvaluator::new(self.space.clone(), self.evaluator(workload));
        crate::evalcache::warm_from_kb(&eval, &self.kb, &ctx);
        let r = self.run_focused_or_random(workload, &eval, budget, seed);
        crate::evalcache::flush_to_kb(&eval, &mut self.kb, &ctx);
        (r, eval.stats())
    }

    /// Train a cycles predictor from everything the knowledge base has
    /// accumulated for this machine: every persisted eval-cache record
    /// joined against its program's characterization features
    /// (`ic_predict::TrainingSet::assemble_for_machine`), model
    /// selection by leave-one-program-out Spearman. Returns `None`
    /// when the joined set is smaller than
    /// [`ic_predict::MIN_TRAINING_ROWS`].
    pub fn train_cost_model(&self, seed: u64) -> Option<ic_predict::TrainedModel> {
        let _span = self.obs.span("controller.train_cost_model");
        let ts =
            ic_predict::TrainingSet::assemble_for_machine(&self.kb, &self.space, &self.config.name);
        ic_predict::select_and_train(&ts, seed)
    }

    /// Train and persist the model under `context`, bumping the stored
    /// version so stale engines can detect the refresh.
    pub fn train_and_store_model(
        &mut self,
        context: &str,
        unix_ms: u64,
        seed: u64,
    ) -> Option<ic_predict::TrainedModel> {
        let mut tm = self.train_cost_model(seed)?;
        tm.version = self.kb.model_for(context).map_or(1, |r| r.version + 1);
        self.kb.upsert_model(tm.to_record(context, unix_ms));
        Some(tm)
    }

    /// Iterative compilation in **predict-then-verify** mode: same
    /// candidate draws as [`Self::compile_iterative_cached`] (identical
    /// seed ⇒ identical sequences), but only the model's top
    /// `verify_fraction` of unknown candidates is simulated — the rest
    /// answer with clamped predictions. Uses the model persisted for
    /// this context when one exists, otherwise trains on the spot;
    /// with no trainable data the wrapper bypasses and the run is
    /// bit-identical to the plain cached search.
    pub fn compile_iterative_predicted(
        &mut self,
        workload: &Workload,
        budget: usize,
        seed: u64,
        verify_fraction: f64,
    ) -> (SearchResult, CacheStats, ic_obs::PredictStats) {
        let _span = self.obs.span("controller.compile_iterative_predicted");
        let ctx = crate::evalcache::context_fingerprint(workload, &self.config);
        let eval = CachedEvaluator::new(self.space.clone(), self.evaluator(workload));
        crate::evalcache::warm_from_kb(&eval, &self.kb, &ctx);
        // At full verification the model is never consulted — don't
        // spend a training pass on it.
        let model = if verify_fraction < 1.0 {
            self.kb
                .model_for(&ctx)
                .and_then(ic_predict::TrainedModel::from_record)
                .or_else(|| self.train_cost_model(seed))
        } else {
            None
        };
        let feats = self
            .kb
            .programs
            .iter()
            .find(|p| p.program == workload.name)
            .map(|p| p.features.clone())
            .unwrap_or_default();
        let ptv = ic_predict::PredictThenVerify::new(&eval, feats, model, verify_fraction);
        let r = match self.focused_model(workload, 3, 5, ModelKind::Markov) {
            Some(m) => ic_predict::run_focused(&ptv, budget, &m, seed),
            None => ic_predict::run_random(&self.space, &ptv, budget, seed),
        };
        let pstats = ptv.stats();
        drop(ptv);
        crate::evalcache::flush_to_kb(&eval, &mut self.kb, &ctx);
        (r, eval.stats(), pstats)
    }

    /// A [`WorkloadEvaluator`] wired to this compiler's obs registry
    /// (its per-evaluation sim times land in the `sim.nanos` histogram).
    fn evaluator(&self, workload: &Workload) -> WorkloadEvaluator {
        let mut eval = WorkloadEvaluator::new(workload, &self.config);
        eval.attach_obs(&self.obs);
        eval
    }

    fn run_focused_or_random(
        &self,
        workload: &Workload,
        eval: &dyn Evaluator,
        budget: usize,
        seed: u64,
    ) -> SearchResult {
        match self.focused_model(workload, 3, 5, ModelKind::Markov) {
            Some(model) => focused::run(&self.space, eval, budget, &model, seed),
            None => random::run(&self.space, eval, budget, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        ic_workloads::adpcm_scaled(256, 3)
    }

    fn compiler() -> IntelligentCompiler {
        IntelligentCompiler::new(MachineConfig::vliw_c6713_like())
    }

    #[test]
    fn evaluator_costs_are_consistent() {
        let w = tiny_workload();
        let cfg = MachineConfig::vliw_c6713_like();
        let eval = WorkloadEvaluator::new(&w, &cfg);
        let o0 = eval.evaluate(&[]);
        let opt = eval.evaluate(&ic_passes::ofast_sequence());
        assert!(o0.is_finite() && opt.is_finite());
        assert!(opt < o0, "Ofast must beat O0 on adpcm: {opt} vs {o0}");
        assert_eq!(o0, eval.baseline_cycles() as f64);
    }

    #[test]
    fn characterization_populates_kb() {
        let mut ic = compiler();
        ic.characterize_architecture();
        let w = tiny_workload();
        let counters = ic.characterize_program(&w);
        assert!(counters.get(ic_machine::Counter::TOT_INS) > 1000);
        assert_eq!(ic.kb.archs.len(), 1);
        assert_eq!(ic.kb.programs.len(), 1);
    }

    #[test]
    fn populate_kb_records_experiments() {
        let mut ic = compiler();
        let w = tiny_workload();
        ic.populate_kb(&w, 12, 42);
        let exps = ic.kb.experiments_for("adpcm", &ic.config.name);
        assert_eq!(exps.len(), 12);
        assert!(exps.iter().any(|e| e.speedup > 1.0), "some sequence helps");
        // Speedup consistency: cycles * speedup ≈ baseline for all.
        let b0 = exps[0].cycles as f64 * exps[0].speedup;
        for e in &exps {
            let b = e.cycles as f64 * e.speedup;
            assert!((b - b0).abs() / b0 < 0.01);
        }
    }

    #[test]
    fn one_shot_without_kb_falls_back_to_ofast() {
        let ic = compiler();
        let w = tiny_workload();
        let (_m, seq) = ic.compile_one_shot(&w);
        assert_eq!(seq, ic_passes::ofast_sequence());
    }

    #[test]
    fn focused_model_uses_other_programs_only() {
        let mut ic = compiler();
        let crc = ic_workloads::by_name("crc32").unwrap();
        let crc = ic_workloads::Workload {
            source: ic_workloads::sources::crc32(256),
            ..crc
        };
        ic.characterize_program(&crc);
        ic.populate_kb(&crc, 8, 7);
        let w = tiny_workload();
        // The model exists because crc32 (a different program) has data.
        assert!(ic.focused_model(&w, 3, 4, ModelKind::Iid).is_some());
        // But with only the target program in the KB, no model.
        let mut ic2 = compiler();
        ic2.characterize_program(&w);
        ic2.populate_kb(&w, 4, 7);
        assert!(ic2.focused_model(&w, 3, 4, ModelKind::Iid).is_none());
    }

    #[test]
    fn cached_iterative_warm_run_skips_simulations() {
        let mut ic = compiler();
        let w = tiny_workload();
        let (cold, cold_stats) = ic.compile_iterative_cached(&w, 12, 3);
        assert!(cold_stats.misses > 0);
        // Same context, same seed: the whole trajectory is served from
        // the persisted cache — zero raw simulations.
        let (warm, warm_stats) = ic.compile_iterative_cached(&w, 12, 3);
        assert_eq!(cold.best_so_far, warm.best_so_far);
        assert_eq!(warm_stats.misses, 0, "warm run re-simulated");
        // And the uncached path sees the same costs.
        assert_eq!(
            ic.compile_iterative(&w, 12, 3).best_so_far,
            cold.best_so_far
        );
    }

    #[test]
    fn populate_kb_writes_eval_cache_through() {
        let mut ic = compiler();
        let w = tiny_workload();
        ic.populate_kb(&w, 10, 42);
        let ctx = crate::evalcache::context_fingerprint(&w, &ic.config);
        let entries = ic.kb.eval_cache(&ctx).expect("cache record written");
        assert_eq!(entries.len(), 10);
        // A later search over the same context starts warm.
        let (_, stats) = ic.compile_iterative_cached(&w, 8, 42);
        assert!(stats.hits > 0 || stats.misses < 8);
    }

    #[test]
    fn train_cost_model_needs_data_then_learns() {
        let mut ic = compiler();
        let w = tiny_workload();
        assert!(ic.train_cost_model(1).is_none(), "empty kb trains nothing");
        ic.characterize_program(&w);
        ic.populate_kb(&w, 40, 5);
        let tm = ic.train_cost_model(1).expect("enough joined rows");
        assert!(tm.rows >= 30);
        // Persisting bumps versions monotonically per context.
        let ctx = crate::evalcache::context_fingerprint(&w, &ic.config);
        let v1 = ic.train_and_store_model(&ctx, 100, 1).unwrap().version;
        let v2 = ic.train_and_store_model(&ctx, 200, 1).unwrap().version;
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(ic.kb.model_for(&ctx).unwrap().version, 2);
    }

    #[test]
    fn predicted_full_verification_matches_cached_search() {
        let w = tiny_workload();
        let mut a = compiler();
        let mut b = compiler();
        a.characterize_program(&w);
        b.characterize_program(&w);
        a.populate_kb(&w, 20, 9);
        b.populate_kb(&w, 20, 9);
        let (plain, _) = a.compile_iterative_cached(&w, 10, 77);
        let (pred, _, pstats) = b.compile_iterative_predicted(&w, 10, 77, 1.0);
        assert_eq!(plain.best_so_far, pred.best_so_far, "bit-identical at 1.0");
        assert_eq!(plain.evaluated, pred.evaluated);
        assert_eq!(pstats.bypassed, pstats.batches, "every batch bypassed");
    }

    #[test]
    fn predicted_partial_verification_saves_simulations() {
        let w = tiny_workload();
        let mut ic = compiler();
        ic.characterize_program(&w);
        ic.populate_kb(&w, 60, 5);
        let (_, stats, pstats) = ic.compile_iterative_predicted(&w, 24, 123, 0.25);
        assert!(pstats.predicted > 0, "model answered some candidates");
        assert!(
            pstats.verified < pstats.verified + pstats.predicted,
            "strictly fewer simulations than candidates"
        );
        assert!(
            stats.misses <= pstats.verified,
            "misses bounded by verified"
        );
        assert!(pstats.savings_factor() > 1.0);
    }

    #[test]
    fn iterative_improves_with_budget() {
        let ic = compiler();
        let w = tiny_workload();
        let small = ic.compile_iterative(&w, 4, 11);
        let large = ic.compile_iterative(&w, 16, 11);
        assert!(large.best_cost <= small.best_cost);
        assert_eq!(large.evaluations(), 16);
    }
}
