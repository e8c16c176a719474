//! The daemon's warm core: one evaluator stack per workload+machine
//! context, shared across every connection.
//!
//! An [`Engine`] owns the full two-level evaluation engine PR 1–2 built
//! — a [`CachedEvaluator`] (whole-sequence memo table) wrapped around a
//! [`WorkloadEvaluator`] (pass-prefix compilation cache) — plus the
//! sequence space. The [`EnginePool`] keys engines by the same context
//! fingerprint `ic-kb` uses for persisted snapshots, so the second
//! client asking about a workload reuses everything the first client
//! paid for, and a fingerprint collision is impossible without the
//! costs being valid anyway.
//!
//! Request execution lives here too, behind a deadline guard: a search
//! that outlives its deadline stops evaluating immediately (remaining
//! lookups short-circuit to `+∞` *without* touching the shared memo
//! table) and is reported as cancelled.

use crate::proto::{
    CharacterizeResponse, CompileRequest, CompileResponse, ErrorKind, ErrorResponse, JobContext,
    Request, RequestStats, Response, SearchRequest, SearchResponse,
};
use ic_core::evalcache::context_fingerprint;
use ic_core::WorkloadEvaluator;
use ic_kb::KnowledgeBase;
use ic_machine::{Counter, MachineConfig};
use ic_obs::PredictStats;
use ic_passes::{Opt, PrefixCacheConfig};
use ic_predict::{select_and_train, PredictThenVerify, TrainedModel, TrainingSet};
use ic_search::{anneal, genetic, hillclimb, random, CachedEvaluator, Evaluator, SequenceSpace};
use ic_workloads::{Kind, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Resolve a machine config by protocol name.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "vliw" => Some(MachineConfig::vliw_c6713_like()),
        "amd" => Some(MachineConfig::superscalar_amd_like()),
        "tiny" => Some(MachineConfig::test_tiny()),
        _ => None,
    }
}

/// How the pool builds engines. Construct via [`EngineConfig::builder`]
/// — the builder validates, so a constructed config is always sane.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Record every pass the compile cache actually runs into a
    /// per-pass profiler (wall time + IR-size deltas). Observation-only:
    /// compiled IR and costs are bit-identical either way.
    pub profile_passes: bool,
    /// Pass-prefix compile-cache tuning.
    pub prefix_cache: PrefixCacheConfig,
    /// Attach a predict-then-verify cost model to every engine: `random`
    /// searches rank candidates with a learned model and simulate only
    /// the top [`EngineConfig::verify_fraction`]. Off by default — a
    /// predicting engine's search costs are estimates, opted into.
    pub predict: bool,
    /// Fraction of unknown candidates a predicting search verifies by
    /// real simulation, in `(0, 1]`. `1.0` is bit-identical to no
    /// prediction. Ignored unless `predict` is set.
    pub verify_fraction: f64,
    /// Retrain the cost model once this many new memo entries accumulate
    /// since the last (re)train. `0` disables online refresh. Ignored
    /// unless `predict` is set.
    pub retrain_rows: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::builder().build().expect("defaults validate")
    }
}

impl EngineConfig {
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            profile_passes: true,
            compile_cache_bytes: PrefixCacheConfig::default().byte_budget,
            predict: false,
            verify_fraction: 0.25,
            retrain_rows: 64,
        }
    }
}

/// Builder for [`EngineConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    profile_passes: bool,
    compile_cache_bytes: usize,
    predict: bool,
    verify_fraction: f64,
    retrain_rows: u64,
}

impl EngineConfigBuilder {
    /// Enable/disable per-pass profiling (default: enabled — the
    /// overhead budget is <5% on bench_compile, gated in CI).
    pub fn profile_passes(mut self, on: bool) -> Self {
        self.profile_passes = on;
        self
    }

    /// LRU byte budget of the pass-prefix compile cache.
    pub fn compile_cache_bytes(mut self, bytes: usize) -> Self {
        self.compile_cache_bytes = bytes;
        self
    }

    /// Enable predict-then-verify search (default: off).
    pub fn predict(mut self, on: bool) -> Self {
        self.predict = on;
        self
    }

    /// Verified fraction of unknown candidates, in `(0, 1]` (default
    /// 0.25).
    pub fn verify_fraction(mut self, f: f64) -> Self {
        self.verify_fraction = f;
        self
    }

    /// New memo entries between model refreshes; 0 disables (default
    /// 64).
    pub fn retrain_rows(mut self, n: u64) -> Self {
        self.retrain_rows = n;
        self
    }

    pub fn build(self) -> Result<EngineConfig, ic_obs::Error> {
        // A budget below one workload-sized module would make every
        // insertion evict itself — a config bug, not a tuning choice.
        if self.compile_cache_bytes < 4096 {
            return Err(ic_obs::Error::Config(format!(
                "compile_cache_bytes {} is below the 4096-byte floor",
                self.compile_cache_bytes
            )));
        }
        if self.predict && !(self.verify_fraction > 0.0 && self.verify_fraction <= 1.0) {
            return Err(ic_obs::Error::Config(format!(
                "verify_fraction {} is outside (0, 1]",
                self.verify_fraction
            )));
        }
        Ok(EngineConfig {
            profile_passes: self.profile_passes,
            prefix_cache: PrefixCacheConfig {
                byte_budget: self.compile_cache_bytes,
            },
            predict: self.predict,
            verify_fraction: self.verify_fraction,
            retrain_rows: self.retrain_rows,
        })
    }
}

/// The per-engine slice of predict-then-verify state: the program's
/// characterization features (the constant block of every prediction
/// row), the currently installed cost model, and accumulated
/// [`PredictStats`]. Present only when the engine was built with
/// [`EngineConfig::predict`].
pub struct PredictLayer {
    /// Verified fraction of unknown candidates per batch, `(0, 1]`.
    pub verify_fraction: f64,
    /// New memo entries between model refreshes; 0 disables refresh.
    pub retrain_rows: u64,
    /// `ic_features::combined_features` of the -O0 compile+run —
    /// identical to what `ic-core` stores in `ProgramRecord`s, so
    /// daemon rows join the same training sets.
    pub features: Vec<f64>,
    /// Installed model, swapped whole on refresh. Transient search
    /// wrappers clone it, so a retrain never stalls a running search.
    model: Mutex<Option<TrainedModel>>,
    /// Memo-table size at the last (re)train — the refresh trigger
    /// compares against it.
    trained_at: AtomicU64,
    /// Counters accumulated across every predicting search on this
    /// engine (per-search wrappers are transient).
    stats: Mutex<PredictStats>,
}

impl PredictLayer {
    /// Accumulated counters plus the instantaneous model
    /// version/training-rows of the currently installed model.
    pub fn stats(&self) -> PredictStats {
        let mut s = *self.stats.lock();
        if let Some(m) = self.model.lock().as_ref() {
            s.model_version = m.version;
            s.training_rows = m.rows;
        }
        s
    }

    /// Version of the installed model, 0 when none.
    pub fn model_version(&self) -> u64 {
        self.model.lock().as_ref().map_or(0, |m| m.version)
    }

    /// Fold one search wrapper's counters into the accumulator.
    fn absorb(&self, s: &PredictStats) {
        self.stats.lock().merge(s);
    }
}

/// Key of one memoizable request shape on an engine. Every field that
/// influences the response participates; the context itself does not
/// (the memo lives *on* the engine, which is keyed by context).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MemoKey {
    Compile {
        sequence: String,
        emit_ir: bool,
    },
    Search {
        strategy: String,
        budget: usize,
        seed: u64,
    },
    Characterize,
}

impl MemoKey {
    /// The memo key for a data-plane request, or `None` when the
    /// request's response is not replayable:
    ///
    /// - Admin requests observe mutable server state.
    /// - Searches on a *predicting* engine depend on the currently
    ///   installed cost model, which online retraining replaces.
    ///
    /// Everything else is deterministic — compiles and characterizes
    /// re-simulate a fixed program, and non-predict searches are
    /// bit-identical warm or cold by the daemon's core contract — so a
    /// cached response equals a recomputed one.
    pub fn for_request(req: &Request, predicting: bool) -> Option<MemoKey> {
        match req {
            Request::Compile(c) => Some(MemoKey::Compile {
                sequence: c.sequence.join(" "),
                emit_ir: c.emit_ir,
            }),
            Request::Search(s) if !predicting => Some(MemoKey::Search {
                strategy: s.strategy.clone(),
                budget: s.budget,
                seed: s.seed,
            }),
            Request::Search(_) => None,
            Request::Characterize(_) => Some(MemoKey::Characterize),
            Request::Admin(_) => None,
        }
    }
}

/// A bounded memo of fully-rendered responses for repeated identical
/// requests — the serving layer's answer to "the same 8 sequences get
/// compiled by every client": a warm hit skips the queue, the engine,
/// and the simulator entirely.
///
/// Stored responses carry *synthesized* request stats (zero times,
/// cache counters as an all-hit run would report them), which also
/// makes warm responses byte-deterministic across transports — the
/// property the HTTP-vs-framed differential e2e pins.
#[derive(Default)]
pub struct ResponseMemo {
    map: Mutex<HashMap<MemoKey, Response>>,
    hits: AtomicU64,
}

/// Entry cap per engine; at typical response sizes (~1 KiB) this bounds
/// the memo around 4 MiB. Eviction is wholesale — repeated identical
/// requests re-warm in one round trip each.
const RESPONSE_MEMO_MAX: usize = 4096;

impl ResponseMemo {
    pub fn get(&self, key: &MemoKey) -> Option<Response> {
        let found = self.map.lock().get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    pub fn put(&self, key: MemoKey, response: Response) {
        let mut map = self.map.lock();
        if map.len() >= RESPONSE_MEMO_MAX {
            map.clear();
        }
        map.insert(key, response);
    }

    /// Served-from-memo count (the shard's `fast_path_hits` gauge).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Replace a successful response's measured stats with the
/// deterministic form the memo stores: zero times (a memo hit costs no
/// queueing and sub-microsecond service) and the cache counters an
/// all-hit replay would produce. Error responses are never memoized.
pub fn memoized_form(response: &Response) -> Response {
    let mut resp = response.clone();
    match &mut resp {
        Response::Compile(c) => {
            c.stats = RequestStats {
                eval_hits: 1,
                ..RequestStats::default()
            };
        }
        Response::Search(s) => {
            s.stats = RequestStats {
                eval_hits: s.evaluations as u64,
                ..RequestStats::default()
            };
        }
        Response::Characterize(c) => {
            c.stats = RequestStats {
                eval_hits: 1,
                ..RequestStats::default()
            };
        }
        _ => {}
    }
    resp
}

/// One warm evaluation stack for a single workload+machine context.
pub struct Engine {
    /// Context fingerprint (`ic_core::evalcache::context_fingerprint`) —
    /// the pool key and the knowledge-base snapshot key.
    pub fingerprint: String,
    pub workload: Workload,
    pub config: MachineConfig,
    pub space: Arc<SequenceSpace>,
    pub eval: CachedEvaluator<WorkloadEvaluator>,
    /// Predict-then-verify state; `None` when prediction is off.
    pub predict: Option<PredictLayer>,
    /// Fully-rendered responses for repeated identical requests.
    pub memo: ResponseMemo,
}

impl Engine {
    fn build(ctx: &JobContext, cfg: &EngineConfig) -> Result<Engine, ErrorResponse> {
        let config = machine_by_name(&ctx.machine).ok_or_else(|| {
            ErrorResponse::new(
                ErrorKind::BadRequest,
                format!("unknown machine `{}` (vliw|amd|tiny)", ctx.machine),
            )
        })?;
        // Validate the frontend up front so a syntax error is a
        // structured BadRequest, not a worker panic.
        ic_lang::compile(&ctx.name, &ctx.source)
            .map_err(|e| ErrorResponse::new(ErrorKind::BadRequest, format!("frontend: {e}")))?;
        let workload = Workload {
            name: ctx.name.clone(),
            kind: Kind::AluBound,
            source: ctx.source.clone(),
            fuel: ctx.fuel,
            meta: None,
        };
        let space = Arc::new(SequenceSpace::paper());
        let profiler = cfg.profile_passes.then(ic_passes::profiler);
        let eval = CachedEvaluator::new(
            space.clone(),
            WorkloadEvaluator::with_profiler(&workload, &config, cfg.prefix_cache, profiler),
        );
        let predict = cfg.predict.then(|| {
            // Characterize at -O0 exactly like `ic-core` does, so the
            // program block of every prediction row matches the rows the
            // knowledge base's training sets are assembled from.
            let (module, _) = eval.inner().compile(&[]);
            let features = match eval.inner().run(&[]) {
                Ok(r) => ic_features::combined_features(&module, &r.counters),
                // A workload that can't finish -O0 under its fuel still
                // serves; its engine just predicts on sequence features
                // alone.
                Err(_) => Vec::new(),
            };
            PredictLayer {
                verify_fraction: cfg.verify_fraction,
                retrain_rows: cfg.retrain_rows,
                features,
                model: Mutex::new(None),
                trained_at: AtomicU64::new(0),
                stats: Mutex::new(PredictStats::default()),
            }
        });
        Ok(Engine {
            fingerprint: context_fingerprint(&workload, &config),
            workload,
            config,
            space,
            eval,
            predict,
            memo: ResponseMemo::default(),
        })
    }

    /// Retrain this engine's cost model from the knowledge base when
    /// enough new evaluations have accumulated since the last train:
    /// assemble the machine-restricted training set, run model
    /// selection, bump the per-context version, persist the record, and
    /// install the new model. Returns `true` when a model was installed.
    ///
    /// Call *after* write-through ([`EnginePool::flush_to_kb`]) so the
    /// training set includes this engine's latest evaluations.
    pub fn maybe_retrain(&self, kb: &mut KnowledgeBase, unix_ms: u64) -> bool {
        let Some(layer) = &self.predict else {
            return false;
        };
        if layer.retrain_rows == 0 {
            return false;
        }
        let have = self.eval.len() as u64;
        let seen = layer.trained_at.load(Ordering::Relaxed);
        let first = layer.model.lock().is_none();
        if !first && have.saturating_sub(seen) < layer.retrain_rows {
            return false;
        }
        let ts = TrainingSet::assemble_for_machine(kb, &self.space, &self.config.name);
        let Some(mut tm) = select_and_train(&ts, 0x1c) else {
            return false;
        };
        tm.version = kb.model_for(&self.fingerprint).map_or(1, |m| m.version + 1);
        kb.upsert_model(tm.to_record(&self.fingerprint, unix_ms));
        layer.trained_at.store(have, Ordering::Relaxed);
        *layer.model.lock() = Some(tm);
        layer.stats.lock().retrains += 1;
        true
    }

    /// This engine's slice of the unified observability snapshot:
    /// eval-cache, compile-cache, and simulator (decode-cache +
    /// throughput) activity plus per-pass profiling rows, labelled with
    /// the context fingerprint.
    pub fn metrics_snapshot(&self) -> ic_obs::Snapshot {
        let mut snap = ic_obs::Snapshot::for_context(self.fingerprint.clone());
        snap.eval_cache = self.eval.stats();
        snap.compile_cache = self.eval.inner().compile_stats();
        snap.sim = self.eval.inner().sim_stats();
        if let Some(prof) = self.eval.inner().profiler() {
            snap.passes = prof.rows();
        }
        if let Some(layer) = &self.predict {
            snap.predict = layer.stats();
        }
        snap
    }
}

/// The context fingerprint a request would route and cache under,
/// without building an engine — the router uses this to pick a shard
/// before any heavy work happens. Fails the same way engine
/// construction would on an unknown machine, so bad requests are
/// rejected at the door.
pub fn fingerprint_for(ctx: &JobContext) -> Result<String, ErrorResponse> {
    let config = machine_by_name(&ctx.machine).ok_or_else(|| {
        ErrorResponse::new(
            ErrorKind::BadRequest,
            format!("unknown machine `{}` (vliw|amd|tiny)", ctx.machine),
        )
    })?;
    let probe = Workload {
        name: ctx.name.clone(),
        kind: Kind::AluBound,
        source: ctx.source.clone(),
        fuel: ctx.fuel,
        meta: None,
    };
    Ok(context_fingerprint(&probe, &config))
}

/// The pool of warm engines, keyed by context fingerprint.
#[derive(Default)]
pub struct EnginePool {
    config: EngineConfig,
    engines: Mutex<HashMap<String, Arc<Engine>>>,
}

impl EnginePool {
    /// A pool with an explicit (already-validated) engine config.
    pub fn with_config(config: EngineConfig) -> Self {
        EnginePool {
            config,
            engines: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch the engine for `ctx`, building (and warming from `kb`'s
    /// persisted snapshot) on first sight.
    pub fn get_or_create(
        &self,
        ctx: &JobContext,
        kb: &Mutex<KnowledgeBase>,
    ) -> Result<Arc<Engine>, ErrorResponse> {
        // Cheap pre-key: fingerprinting needs the config, so probe by
        // (machine, name, fuel, source) only after a full build once.
        // Build outside the map lock — engine construction compiles the
        // workload, which can take milliseconds.
        let fingerprint = fingerprint_for(ctx)?;
        if let Some(e) = self.engines.lock().get(&fingerprint) {
            return Ok(e.clone());
        }
        let engine = Arc::new(Engine::build(ctx, &self.config)?);
        {
            let mut kb = kb.lock();
            let warmed = ic_core::evalcache::warm_from_kb(&engine.eval, &kb, &fingerprint);
            if warmed > 0 {
                eprintln!(
                    "ic-serve: warmed {warmed} cached evaluations for {}",
                    engine.fingerprint
                );
            }
            if let Some(layer) = &engine.predict {
                // Register the program so this engine's evaluations join
                // future training sets, and load the persisted model (if
                // any) so a restarted daemon predicts from request one.
                let known = kb
                    .programs
                    .iter()
                    .any(|p| p.program == engine.workload.name);
                if !layer.features.is_empty() && !known {
                    kb.upsert_program(ic_kb::ProgramRecord {
                        program: engine.workload.name.clone(),
                        feature_names: ic_features::combined_feature_names(),
                        features: layer.features.clone(),
                        suite: None,
                    });
                }
                if let Some(tm) = kb
                    .model_for(&fingerprint)
                    .and_then(TrainedModel::from_record)
                {
                    layer
                        .trained_at
                        .store(engine.eval.len() as u64, Ordering::Relaxed);
                    *layer.model.lock() = Some(tm);
                }
            }
        }
        let mut map = self.engines.lock();
        // A concurrent first-sight may have raced us; keep the winner so
        // every connection shares one memo table.
        Ok(map
            .entry(fingerprint)
            .or_insert_with(|| engine.clone())
            .clone())
    }

    /// Snapshot every engine's memo table into `kb`, in fingerprint
    /// order. Returns the total number of entries persisted.
    pub fn flush_to_kb(&self, kb: &Mutex<KnowledgeBase>) -> u64 {
        let engines = self.engines();
        let mut total = 0u64;
        let mut kb = kb.lock();
        for e in engines {
            total += kb.merge_eval_cache(&e.fingerprint, e.eval.snapshot()) as u64;
        }
        total
    }

    /// All resident engines, in fingerprint order.
    pub fn engines(&self) -> Vec<Arc<Engine>> {
        let mut engines: Vec<Arc<Engine>> = self.engines.lock().values().cloned().collect();
        engines.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        engines
    }

    /// The already-built engine for `fingerprint`, if resident — the
    /// router's fast-path probe (never builds).
    pub fn get(&self, fingerprint: &str) -> Option<Arc<Engine>> {
        self.engines.lock().get(fingerprint).cloned()
    }

    pub fn len(&self) -> usize {
        self.engines.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluator wrapper that enforces a wall-clock deadline: once the
/// deadline passes, every further lookup returns `+∞` immediately and
/// never reaches the shared cache (so cancellation cannot poison it).
struct DeadlineGuard<'a> {
    inner: &'a dyn Evaluator,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
}

impl DeadlineGuard<'_> {
    fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() > d => {
                self.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Evaluator for DeadlineGuard<'_> {
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        if self.expired() {
            return f64::INFINITY;
        }
        self.inner.evaluate(seq)
    }
}

/// Delta-capture around an engine's shared cache counters, for
/// per-request stats.
pub struct StatsCapture {
    started: Instant,
    eval_hits: u64,
    eval_misses: u64,
    compile_hits: u64,
    compile_misses: u64,
}

impl StatsCapture {
    pub fn begin(engine: &Engine) -> Self {
        let e = engine.eval.stats();
        let c = engine.eval.inner().compile_stats();
        StatsCapture {
            started: Instant::now(),
            eval_hits: e.hits,
            eval_misses: e.misses,
            compile_hits: c.hits,
            compile_misses: c.misses,
        }
    }

    pub fn finish(self, engine: &Engine, queue_ms: f64) -> RequestStats {
        let e = engine.eval.stats();
        let c = engine.eval.inner().compile_stats();
        RequestStats {
            queue_ms,
            service_ms: self.started.elapsed().as_secs_f64() * 1e3,
            eval_hits: e.hits.saturating_sub(self.eval_hits),
            eval_misses: e.misses.saturating_sub(self.eval_misses),
            compile_hits: c.hits.saturating_sub(self.compile_hits),
            compile_misses: c.misses.saturating_sub(self.compile_misses),
        }
    }
}

fn parse_sequence(names: &[String]) -> Result<Vec<Opt>, ErrorResponse> {
    names
        .iter()
        .map(|s| {
            Opt::from_name(s).ok_or_else(|| {
                ErrorResponse::new(ErrorKind::BadRequest, format!("unknown optimization `{s}`"))
            })
        })
        .collect()
}

/// Serve a compile request on `engine`. The measured cost is written
/// through to the shared eval cache, so compiles warm later searches.
pub fn run_compile(
    engine: &Engine,
    req: &CompileRequest,
    queue_ms: f64,
) -> Result<CompileResponse, ErrorResponse> {
    let seq = parse_sequence(&req.sequence)?;
    let cap = StatsCapture::begin(engine);
    let outcome = engine.eval.inner().run(&seq);
    let resp = match outcome {
        Ok(r) => {
            if let Some(idx) = engine.space.encode(&seq) {
                engine.eval.warm([(idx, r.cycles() as f64)]);
            }
            CompileResponse {
                cycles: r.cycles() as f64,
                instructions: r.instructions(),
                result: r.ret_i64().unwrap_or(0),
                counters: Counter::ALL
                    .iter()
                    .map(|c| (c.name().to_string(), r.counters.get(*c)))
                    .collect(),
                ir: req.emit_ir.then(|| {
                    let (m, _) = engine.eval.inner().compile(&seq);
                    ic_ir::print::module_to_string(&m)
                }),
                stats: RequestStats::default(),
            }
        }
        // Fuel exhaustion is a valid measurement (+∞), not an error:
        // the CLI reports it the same way the search engine scores it.
        Err(_) => {
            if let Some(idx) = engine.space.encode(&seq) {
                engine.eval.warm([(idx, f64::INFINITY)]);
            }
            CompileResponse {
                cycles: f64::INFINITY,
                instructions: 0,
                result: 0,
                counters: Vec::new(),
                ir: None,
                stats: RequestStats::default(),
            }
        }
    };
    let stats = cap.finish(engine, queue_ms);
    Ok(CompileResponse { stats, ..resp })
}

/// Serve a search request on `engine` under `deadline`.
pub fn run_search(
    engine: &Engine,
    req: &SearchRequest,
    deadline: Option<Instant>,
    queue_ms: f64,
) -> Result<SearchResponse, ErrorResponse> {
    let cap = StatsCapture::begin(engine);
    // Predict-then-verify path: batched strategies route through a
    // transient wrapper over this engine's exact cache. The wrapper
    // needs the concrete `CachedEvaluator` (predictions must probe and
    // write through the real memo), so the deadline guard cannot sit in
    // between — a predicting search honors its deadline at batch entry
    // only. The trade is sound: prediction exists to make the batch
    // cheap.
    if let Some(layer) = engine.predict.as_ref().filter(|_| req.strategy == "random") {
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(ErrorResponse::new(
                ErrorKind::DeadlineExceeded,
                "deadline elapsed before the search started",
            ));
        }
        let model = layer.model.lock().clone();
        let ptv = PredictThenVerify::new(
            &engine.eval,
            layer.features.clone(),
            model,
            layer.verify_fraction,
        );
        let r = ic_predict::run_random(&engine.space, &ptv, req.budget, req.seed);
        layer.absorb(&ptv.stats());
        let stats = cap.finish(engine, queue_ms);
        let evaluations = r.evaluations();
        return Ok(SearchResponse {
            best_sequence: r.best_seq.iter().map(|o| o.name().to_string()).collect(),
            best_cost: r.best_cost,
            best_so_far: r.best_so_far,
            evaluations,
            stats,
        });
    }
    let guard = DeadlineGuard {
        inner: &engine.eval,
        deadline,
        cancelled: AtomicBool::new(false),
    };
    let space = &engine.space;
    let r = match req.strategy.as_str() {
        "random" => random::run(space, &guard, req.budget, req.seed),
        "hillclimb" => hillclimb::run(space, &guard, req.budget, 20, req.seed),
        "genetic" => genetic::run(
            space,
            &guard,
            req.budget,
            &genetic::GaConfig::default(),
            req.seed,
        ),
        "anneal" => anneal::run(
            space,
            &guard,
            req.budget,
            &anneal::AnnealConfig::default(),
            req.seed,
        ),
        other => {
            return Err(ErrorResponse::new(
                ErrorKind::BadRequest,
                format!("unknown strategy `{other}` (random|hillclimb|genetic|anneal)"),
            ))
        }
    };
    if guard.cancelled.load(Ordering::Relaxed) {
        return Err(ErrorResponse::new(
            ErrorKind::DeadlineExceeded,
            format!(
                "search cancelled mid-run after {} of {} evaluations",
                r.evaluated.iter().filter(|(_, c)| c.is_finite()).count(),
                req.budget
            ),
        ));
    }
    let stats = cap.finish(engine, queue_ms);
    let evaluations = r.evaluations();
    Ok(SearchResponse {
        best_sequence: r.best_seq.iter().map(|o| o.name().to_string()).collect(),
        best_cost: r.best_cost,
        best_so_far: r.best_so_far,
        evaluations,
        stats,
    })
}

/// Serve a characterize request: the -O0 counter vector.
pub fn run_characterize(
    engine: &Engine,
    queue_ms: f64,
) -> Result<CharacterizeResponse, ErrorResponse> {
    let cap = StatsCapture::begin(engine);
    match engine.eval.inner().run(&[]) {
        Ok(r) => {
            let stats = cap.finish(engine, queue_ms);
            Ok(CharacterizeResponse {
                counters: Counter::ALL
                    .iter()
                    .map(|c| (c.name().to_string(), r.counters.get(*c)))
                    .collect(),
                cycles: r.cycles() as f64,
                stats,
            })
        }
        Err(e) => Err(ErrorResponse::new(
            ErrorKind::BadRequest,
            format!("baseline run failed: {e}"),
        )),
    }
}
