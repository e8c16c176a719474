//! In-process replay of a traced run's requests, layer by layer.
//!
//! Each sampled request is carried through the layers' public entry
//! points on state the replay builds for itself, one span per call,
//! and its outcome must equal the daemon's answer bit for bit. Two
//! roots per request keep two questions apart:
//!
//! * `replay` is the **uncached path** a request would take with no
//!   cache in front of any layer: decode the frame, fingerprint the
//!   context, (first sight: parse and build the engine), run the
//!   passes, simulate. Layer shares are shares of this path.
//! * `probe` holds side measurements of the same request that are not
//!   on that path: the prefix cache, the bare decode, the legacy
//!   interpreter (the oracle the default tier is compared with), the
//!   whole `WorkloadEvaluator` cold and warm, the per-pass profile.
//!
//! Only tier-agnostic entry points are called (`ic_machine::simulate`,
//! `simulate_legacy`, `DecodedProgram::decode`, `WorkloadEvaluator`,
//! `CachedEvaluator`), so a change that removes a simulator tier or a
//! cache does not have to edit this file.

use crate::corpus::{self, Corpus, Program};
use crate::oracle::{run_digest, search_digest};
use crate::runner::{materialise, Record};
use crate::schedule::{Kind, Op};
use crate::span::Trace;
use ic_core::WorkloadEvaluator;
use ic_ir::Module;
use ic_kb::KnowledgeBase;
use ic_machine::{
    simulate, simulate_legacy, Counter, DecodedProgram, MachineConfig, Memory, RunResult,
};
use ic_passes::{apply_sequence, apply_sequence_profiled, module_insts, Opt, PrefixCache};
use ic_predict::{PredictThenVerify, TrainedModel};
use ic_search::{random, CachedEvaluator, Evaluator, SearchResult, SequenceSpace};
use ic_serve::engine::fingerprint_for;
use ic_serve::proto::{decode_versioned, envelope_json};
use ic_serve::Request;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Share of unknown candidates a predicting search verifies — the
/// daemon's default, which the benchmark's daemon config leaves alone.
const VERIFY_FRACTION: f64 = 0.25;

const UNTRACED: u64 = u64::MAX;

/// The evaluation path assembled from the layers' own entry points:
/// prefix-cached passes, then a simulation from scratch.
pub struct Layered<'t> {
    cache: PrefixCache,
    config: MachineConfig,
    fuel: u64,
    trace: &'t Trace,
    /// `parent << 32 | request` for the spans of the batch in flight,
    /// or [`UNTRACED`].
    scope: AtomicU64,
    tally: Arc<Tally>,
}

/// Exact counts over everything the replay compiles and simulates under
/// spans, shared by every context's evaluator (rayon workers add to it).
#[derive(Default)]
struct Tally {
    passes_run: AtomicU64,
    ir_insts_out: AtomicU64,
    simulated_insts: AtomicU64,
    simulated_cycles: AtomicU64,
}

impl Tally {
    fn add(&self, passes: usize, module: &Module, run: Option<&RunResult>) {
        self.passes_run.fetch_add(passes as u64, Ordering::Relaxed);
        self.ir_insts_out
            .fetch_add(module_insts(module), Ordering::Relaxed);
        if let Some(r) = run {
            self.simulated_insts
                .fetch_add(r.instructions(), Ordering::Relaxed);
            self.simulated_cycles
                .fetch_add(r.cycles(), Ordering::Relaxed);
        }
    }
}

impl Layered<'_> {
    fn run(&self, module: &Module) -> Option<RunResult> {
        simulate(module, &self.config, Memory::for_module(module), self.fuel).ok()
    }

    fn enter(&self, parent: u32, req: u32) {
        self.scope
            .store(u64::from(parent) << 32 | u64::from(req), Ordering::SeqCst);
    }

    fn leave(&self) {
        self.scope.store(UNTRACED, Ordering::SeqCst);
    }
}

impl Evaluator for Layered<'_> {
    fn evaluate(&self, seq: &[Opt]) -> f64 {
        let cost = |r: Option<RunResult>| r.map_or(f64::INFINITY, |r| r.cycles() as f64);
        let scope = self.scope.load(Ordering::SeqCst);
        if scope == UNTRACED {
            let (module, _) = self.cache.apply_cached(seq);
            return cost(self.run(&module));
        }
        let (parent, req) = ((scope >> 32) as u32, scope as u32);
        let t = self.trace;
        t.record(Some(parent), req, "core.evaluate", |id| {
            let (module, _) = t.record(Some(id), req, "passes.cached_apply", |_| {
                self.cache.apply_cached(seq)
            });
            let run = t.record(Some(id), req, "machine.simulate", |_| self.run(&module));
            self.tally.add(seq.len(), &module, run.as_ref());
            cost(run)
        })
    }
}

struct Context<'t> {
    base: Module,
    eval: CachedEvaluator<Layered<'t>>,
    /// The daemon's own evaluator stack, for the cold/warm probes.
    whole: WorkloadEvaluator,
    /// `search_predict`: the program's characterization and the model
    /// the daemon trained for this context.
    features: Vec<f64>,
    model: Option<TrainedModel>,
}

/// Exact counts over the replayed sample: pure functions of the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub replayed: u64,
    pub passes_run: u64,
    pub ir_insts_out: u64,
    pub simulated_insts: u64,
    pub simulated_cycles: u64,
    pub oracle_mismatches: u64,
    pub source_bytes: u64,
    pub passes_elided: u64,
    pub passes_applied: u64,
}

pub struct Replay<'t> {
    kind: Kind,
    trace: &'t Trace,
    corpus: &'t Corpus,
    space: Arc<SequenceSpace>,
    config: MachineConfig,
    contexts: HashMap<(u32, u64), Context<'t>>,
    tally: Arc<Tally>,
    /// The knowledge base the daemon wrote during set-up (models).
    kb: Option<KnowledgeBase>,
    pub profiler: ic_passes::PassProfiler,
    pub counts: Counts,
    /// Replays that did not reproduce the daemon's answer.
    pub mismatches: Vec<String>,
    /// Per predicting search: best cost over the exact search's best.
    pub cost_ratios: Vec<f64>,
    /// Per predicting search: rank correlation of the model's
    /// predictions with the exact costs of the same candidates.
    pub spearmans: Vec<f64>,
}

impl<'t> Replay<'t> {
    pub fn new(
        kind: Kind,
        trace: &'t Trace,
        corpus: &'t Corpus,
        space: Arc<SequenceSpace>,
        kb: Option<KnowledgeBase>,
    ) -> Replay<'t> {
        Replay {
            kind,
            trace,
            corpus,
            space,
            config: corpus::machine(),
            contexts: HashMap::new(),
            tally: Arc::default(),
            kb,
            profiler: ic_passes::profiler(),
            counts: Counts::default(),
            mismatches: Vec::new(),
            cost_ratios: Vec::new(),
            spearmans: Vec::new(),
        }
    }

    /// Build the replay's state for a context the first time a request
    /// names it. With a `root`, the two first-sight steps the daemon
    /// pays — frontend validation and engine construction — are spans
    /// on the path.
    fn context(&mut self, program_index: u32, epoch: u64, root: Option<(u32, u32)>) {
        if self.contexts.contains_key(&(program_index, epoch)) {
            return;
        }
        let corpus = self.corpus;
        let program: &Program = &corpus.programs[program_index as usize];
        let mut workload = program.workload.clone();
        workload.fuel += epoch;
        let (trace, config) = (self.trace, &self.config);
        let (base, whole) = match root {
            Some((root, req)) => {
                self.counts.source_bytes += workload.source.len() as u64;
                let base = trace.record(Some(root), req, "lang.compile", |_| {
                    ic_lang::compile(&workload.name, &workload.source)
                });
                let whole = trace.record(Some(root), req, "core.engine_build", |_| {
                    WorkloadEvaluator::new(&workload, config)
                });
                (base, whole)
            }
            None => (
                ic_lang::compile(&workload.name, &workload.source),
                WorkloadEvaluator::new(&workload, config),
            ),
        };
        let base = base.expect("corpus programs compile");
        let layered = Layered {
            cache: PrefixCache::new(base.clone()),
            config: config.clone(),
            fuel: workload.fuel,
            trace,
            scope: AtomicU64::new(UNTRACED),
            tally: self.tally.clone(),
        };
        let (mut features, mut model) = (Vec::new(), None);
        if self.kind == Kind::SearchPredict {
            // Characterize exactly as the daemon's engine does, and load
            // the model it trained and persisted for this context.
            if let Some(r) = layered.run(&base) {
                features = ic_features::combined_features(&base, &r.counters);
            }
            let fingerprint = ic_core::context_fingerprint(&workload, config);
            model = self
                .kb
                .as_ref()
                .and_then(|kb| kb.model_for(&fingerprint))
                .and_then(TrainedModel::from_record);
        }
        self.contexts.insert(
            (program_index, epoch),
            Context {
                base,
                eval: CachedEvaluator::new(self.space.clone(), layered),
                whole,
                features,
                model,
            },
        );
    }

    /// Replay a set-up request without spans, so the state the timed
    /// requests meet is the state the daemon had.
    pub fn prime(&mut self, rec: &Record) {
        self.context(rec.step.program, rec.step.epoch, None);
        let ctx = &self.contexts[&(rec.step.program, rec.step.epoch)];
        match rec.step.op {
            Op::Compile { sequence } => {
                ctx.eval.evaluate(&self.space.decode(sequence));
            }
            Op::Search { budget, seed } => {
                random::run(&self.space, &ctx.eval, budget as usize, seed);
            }
            Op::Characterize | Op::Flush => {}
        }
    }

    /// Replay one timed request under spans and compare its outcome
    /// with the daemon's answer.
    pub fn request(&mut self, req: u32, rec: &Record) {
        let Ok(answer) = &rec.answer else { return };
        if rec.step.op == Op::Flush {
            return;
        }
        let corpus = self.corpus;
        let program = &corpus.programs[rec.step.program as usize];
        let request = materialise(&rec.step, program, &self.space);
        let frame = envelope_json(&request);
        let t = self.trace;
        let root = t.begin(None, req, "replay");
        let decoded = t.record(Some(root), req, "serve.proto_decode", |_| {
            decode_versioned::<Request>(&frame)
        });
        let decoded = decoded.expect("own frames decode").msg;
        let job = match &decoded {
            Request::Compile(c) => &c.ctx,
            Request::Search(s) => &s.ctx,
            Request::Characterize(c) => &c.ctx,
            Request::Admin(_) => unreachable!("flushes are not replayed"),
        };
        t.record(Some(root), req, "serve.fingerprint", |_| {
            fingerprint_for(job)
        })
        .expect("the benchmark's machine is known");
        self.context(rec.step.program, rec.step.epoch, Some((root, req)));
        let key = (rec.step.program, rec.step.epoch);
        self.counts.replayed += 1;
        let digest = match rec.step.op {
            Op::Compile { sequence } => self.compile(root, req, key, sequence),
            Op::Search { budget, seed } => self.search(root, req, key, budget as usize, seed),
            Op::Characterize => self.characterize(root, req, key),
            Op::Flush => unreachable!("returned above"),
        };
        if digest != answer.digest {
            self.mismatches.push(format!(
                "{}: replay of {:?} differs from the daemon's answer (cost {})",
                program.workload.name, rec.step.op, answer.cost
            ));
        }
    }

    fn compile(&mut self, root: u32, req: u32, key: (u32, u64), sequence: u64) -> u64 {
        let seq = self.space.decode(sequence);
        let ctx = &self.contexts[&key];
        let layered = ctx.eval.inner();
        let t = self.trace;
        let module = t.record(Some(root), req, "passes.apply", |_| {
            let mut m = ctx.base.clone();
            apply_sequence(&mut m, &seq);
            m
        });
        let run = t.record(Some(root), req, "machine.simulate", |_| {
            layered.run(&module)
        });
        t.end(root);
        self.tally.add(seq.len(), &module, run.as_ref());

        let probe = t.begin(None, req, "probe");
        let (cached, _) = t.record(Some(probe), req, "passes.cached_apply", |_| {
            layered.cache.apply_cached(&seq)
        });
        t.record(Some(probe), req, "passes.profiled", |_| {
            let mut m = ctx.base.clone();
            apply_sequence_profiled(&mut m, &seq, &self.profiler);
        });
        t.record(Some(probe), req, "machine.decode", |_| {
            DecodedProgram::decode(&module, &self.config)
        });
        let legacy = t.record(Some(probe), req, "machine.legacy", |_| {
            simulate_legacy(
                &module,
                &self.config,
                Memory::for_module(&module),
                layered.fuel,
            )
            .ok()
        });
        let cold = t.record(Some(probe), req, "core.run_cold", |_| {
            ctx.whole.run(&seq).ok()
        });
        let warm = t.record(Some(probe), req, "core.run_warm", |_| {
            ctx.whole.run(&seq).ok()
        });
        t.end(probe);

        let digests: Vec<Option<u64>> = [&run, &legacy, &cold, &warm]
            .iter()
            .map(|r| r.as_ref().map(result_digest))
            .collect();
        // The default tier, the legacy interpreter and the daemon's own
        // evaluator (cold and from its caches) must tell one story, and
        // the prefix cache must hand back the module the passes built.
        if digests.iter().any(|d| *d != digests[0])
            || module_insts(&cached) != module_insts(&module)
        {
            self.counts.oracle_mismatches += 1;
        }
        digests[0].unwrap_or(0)
    }

    fn search(&mut self, root: u32, req: u32, key: (u32, u64), budget: usize, seed: u64) -> u64 {
        let ctx = &self.contexts[&key];
        let layered = ctx.eval.inner();
        let t = self.trace;
        let result = if self.kind == Kind::SearchPredict {
            let ptv = PredictThenVerify::new(
                &ctx.eval,
                ctx.features.clone(),
                ctx.model.clone(),
                VERIFY_FRACTION,
            );
            t.record(Some(root), req, "predict.batch", |id| {
                layered.enter(id, req);
                let r = ic_predict::run_random(&self.space, &ptv, budget, seed);
                layered.leave();
                r
            })
        } else {
            t.record(Some(root), req, "search.batch", |id| {
                layered.enter(id, req);
                let r = random::run(&self.space, &ctx.eval, budget, seed);
                layered.leave();
                r
            })
        };
        t.end(root);
        if self.kind == Kind::SearchPredict {
            self.predict_quality(key, budget, seed, &result);
        }
        search_digest(
            result.best_cost,
            &result.best_so_far,
            result.best_seq.iter().map(|o| o.name()),
        )
    }

    /// What prediction cost in quality: the same search, same seed, with
    /// every candidate simulated (on a memo of its own, untraced).
    fn predict_quality(&mut self, key: (u32, u64), budget: usize, seed: u64, got: &SearchResult) {
        let ctx = &self.contexts[&key];
        let exact_eval = |seq: &[Opt]| {
            let (module, _) = ctx.eval.inner().cache.apply_cached(seq);
            ctx.eval
                .inner()
                .run(&module)
                .map_or(f64::INFINITY, |r| r.cycles() as f64)
        };
        let exact = random::run(&self.space, &exact_eval, budget, seed);
        self.cost_ratios.push(got.best_cost / exact.best_cost);
        if let Some(model) = &ctx.model {
            let (predicted, actual): (Vec<f64>, Vec<f64>) = exact
                .evaluated
                .iter()
                .filter(|(_, cost)| cost.is_finite())
                .map(|(seq, cost)| {
                    let row = ic_predict::encoding::row(&ctx.features, &self.space, seq);
                    (model.model.predict_cycles(&row), *cost)
                })
                .unzip();
            self.spearmans
                .push(ic_ml::metrics::spearman(&actual, &predicted));
        }
    }

    fn characterize(&mut self, root: u32, req: u32, key: (u32, u64)) -> u64 {
        let ctx = &self.contexts[&key];
        let t = self.trace;
        let run = t.record(Some(root), req, "machine.simulate", |_| {
            ctx.eval.inner().run(&ctx.base)
        });
        t.end(root);
        self.tally.add(0, &ctx.base, run.as_ref());
        let Some(run) = run else { return 0 };
        let probe = t.begin(None, req, "probe");
        t.record(Some(probe), req, "features.extract", |_| {
            ic_features::combined_features(&ctx.base, &run.counters)
        });
        t.end(probe);
        run_digest(run.cycles() as f64, 0, 0, counters(&run))
    }

    /// Fold the tally and the prefix caches' statistics into the counts
    /// once replay is over.
    pub fn finish(&mut self) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        self.counts.passes_run = load(&self.tally.passes_run);
        self.counts.ir_insts_out = load(&self.tally.ir_insts_out);
        self.counts.simulated_insts = load(&self.tally.simulated_insts);
        self.counts.simulated_cycles = load(&self.tally.simulated_cycles);
        for ctx in self.contexts.values() {
            let stats = ctx.eval.inner().cache.stats();
            self.counts.passes_elided += stats.passes_elided;
            self.counts.passes_applied += stats.passes_run;
        }
    }
}

fn counters(run: &RunResult) -> impl Iterator<Item = u64> + '_ {
    Counter::ALL.iter().map(|c| run.counters.get(*c))
}

/// A run digested as the daemon's `CompileResponse` reports it.
fn result_digest(run: &RunResult) -> u64 {
    run_digest(
        run.cycles() as f64,
        run.instructions(),
        run.ret_i64().unwrap_or(0),
        counters(run),
    )
}
