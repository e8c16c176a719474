//! Compile-throughput benchmark: applying optimization sequences from
//! scratch vs through the prefix-tree compilation cache
//! (`ic_passes::PrefixCache`), over a blocked sample of the paper's
//! 250k-sequence space (the same index locality the fig2a harness and
//! the search batchers produce).
//!
//! Besides the criterion console output, this bench writes
//! `BENCH_compile.json` at the repo root with before/after throughput,
//! the measured speedup, the passes-elided factor, the overhead of
//! leaving per-pass profiling on (budget: <5%, gated in CI), and a
//! unified `ic_obs::Snapshot` metrics block.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ic_core::controller::WorkloadEvaluator;
use ic_core::IntelligentCompiler;
use ic_machine::{
    simulate_decoded, simulate_legacy, Counter, DecodeCache, DecodeCacheConfig, MachineConfig,
    Memory,
};
use ic_passes::{apply_sequence, Opt, PrefixCache, PrefixCacheConfig};
use ic_predict::{select_and_train, PredictThenVerify, TrainingSet};
use ic_search::{exhaustive, random, CachedEvaluator, SequenceSpace};
use serde::Serialize;
use std::time::Instant;

const SAMPLES: u64 = 600;

fn sample_sequences() -> Vec<Vec<Opt>> {
    let space = SequenceSpace::paper();
    exhaustive::blocked_indices(space.count(), SAMPLES)
        .into_iter()
        .map(|i| space.decode(i))
        .collect()
}

fn base_module() -> ic_ir::Module {
    ic_workloads::adpcm_scaled(256, 3).compile()
}

fn compile_all_uncached(base: &ic_ir::Module, seqs: &[Vec<Opt>]) -> usize {
    let mut total = 0usize;
    for seq in seqs {
        let mut m = base.clone();
        total += apply_sequence(&mut m, seq);
    }
    total
}

fn compile_all_cached(cache: &PrefixCache, seqs: &[Vec<Opt>]) -> usize {
    seqs.iter().map(|seq| cache.apply_cached(seq).1).sum()
}

fn bench_compile(c: &mut Criterion) {
    let base = base_module();
    let seqs = sample_sequences();
    let mut g = c.benchmark_group("compile");
    g.sample_size(10);
    g.bench_function(format!("uncached_{SAMPLES}_seqs"), |b| {
        b.iter(|| compile_all_uncached(&base, &seqs))
    });
    g.bench_function(format!("prefix_cached_{SAMPLES}_seqs"), |b| {
        b.iter_batched(
            || PrefixCache::new(base.clone()),
            |cache| compile_all_cached(&cache, &seqs),
            BatchSize::LargeInput,
        )
    });
    g.bench_function(format!("profiled_cached_{SAMPLES}_seqs"), |b| {
        b.iter_batched(
            || {
                PrefixCache::with_profiler(
                    base.clone(),
                    PrefixCacheConfig::default(),
                    Some(ic_passes::profiler()),
                )
            },
            |cache| compile_all_cached(&cache, &seqs),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

#[derive(Serialize)]
struct Throughput {
    seconds: f64,
    seqs_per_sec: f64,
}

#[derive(Serialize)]
struct SimThroughput {
    seconds: f64,
    insts_per_sec: f64,
}

/// Simulator-tier comparison on the same compiled module: the legacy
/// tree-walking interpreter vs the pre-decoded threaded-code engine
/// (decoding amortized through a [`DecodeCache`], as in production).
#[derive(Serialize)]
struct SimReport {
    workload: String,
    /// Instructions retired per run (identical on all tiers).
    insts_per_run: u64,
    /// Runs per timed batch; throughput comes from each tier's best
    /// interleaved batch, so ambient load cancels out.
    runs: u64,
    legacy: SimThroughput,
    decoded: SimThroughput,
    /// decoded insts/s over legacy insts/s. CI gates >= 1.5x hard; see
    /// EXPERIMENTS.md "Simulator tier throughput" for why the timing
    /// model's serial dependency chain caps it near 2x.
    decoded_speedup: f64,
    decode_cache: ic_obs::DecodeCacheStats,
}

/// Per-tier simulated-instruction throughput over ~`runs` evaluations of
/// `m` per tier (first decode memoized, as in production
/// search), timed as interleaved best-of batches.
fn measure_sim(m: &ic_ir::Module, cfg: &MachineConfig, fuel: u64, runs: u64) -> SimReport {
    let run_legacy = || simulate_legacy(m, cfg, Memory::for_module(m), fuel).expect("legacy run");
    let cache = DecodeCache::new(DecodeCacheConfig::default());
    let run_decoded = || {
        let prog = cache.get_or_decode(m, cfg);
        simulate_decoded(&prog, cfg, Memory::for_module(m), fuel).expect("decoded run")
    };
    // Tiers must agree bit-for-bit before a throughput claim means
    // anything (the differential tests pin this; re-checked here).
    let l = run_legacy();
    let d = run_decoded();
    assert_eq!(l.ret, d.ret, "decoded disagrees on return value");
    assert_eq!(l.counters, d.counters, "decoded disagrees on counters");
    let insts_per_run = l.counters.get(Counter::TOT_INS);

    // Interleaved best-of: CI machines are noisy neighbours, so a plain
    // mean of N runs swings wildly with ambient load. Alternate small
    // batches of the tiers and keep each tier's *fastest* batch — load
    // spikes hit every tier alike and the minima converge to the
    // machines' true throughput.
    // Plenty of batches: host frequency steps last long enough that a
    // handful of rounds can strand one tier entirely inside a slow
    // window, skewing the ratios. Batches are ~2 ms each, so 32 rounds
    // keep the whole measurement under a second while giving every tier
    // many shots at a quiet window.
    let (batches, per_batch) = (runs.div_ceil(4).max(32), 4u64);
    let mut legacy_s = f64::INFINITY;
    let mut decoded_s = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(run_legacy());
        }
        legacy_s = legacy_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(run_decoded());
        }
        decoded_s = decoded_s.min(start.elapsed().as_secs_f64());
    }

    let batch_insts = (insts_per_run * per_batch) as f64;
    let legacy_ips = batch_insts / legacy_s;
    let decoded_ips = batch_insts / decoded_s;
    SimReport {
        workload: "adpcm_scaled(256)".into(),
        insts_per_run,
        runs: per_batch,
        legacy: SimThroughput {
            seconds: legacy_s,
            insts_per_sec: legacy_ips,
        },
        decoded: SimThroughput {
            seconds: decoded_s,
            insts_per_sec: decoded_ips,
        },
        decoded_speedup: decoded_ips / legacy_ips,
        decode_cache: cache.stats(),
    }
}

/// Predict-then-verify vs a plain cached search, identical budget and
/// seed on cold caches. The cycles model trains on *other* suite
/// programs — adpcm stays out of the corpus, so this measures transfer.
#[derive(Serialize)]
struct PredictReport {
    workload: String,
    budget: u64,
    verify_fraction: f64,
    /// Winning model family from leave-one-program-out selection.
    model: String,
    training_rows: u64,
    /// Mean held-out Spearman from model selection.
    spearman: f64,
    /// Raw simulations the plain cached search issued (cold cache).
    baseline_simulations: u64,
    /// Raw simulations the predict-then-verify search issued.
    verified: u64,
    /// Candidates answered from the model instead of the simulator.
    predicted: u64,
    candidates: u64,
    /// `(verified + predicted) / verified` — CI gates >= 3.0.
    savings_factor: f64,
    baseline_best_cycles: f64,
    predicted_best_cycles: f64,
    /// predicted best over baseline best — CI gates <= 1.05 (the
    /// predicted search must land within noise of simulate-everything).
    best_cost_ratio: f64,
}

/// Train a cycles model on a handful of non-adpcm suite programs, then
/// race predict-then-verify against the plain cached evaluator on
/// adpcm with the same seed and budget.
fn measure_predict(seed: u64) -> (PredictReport, ic_obs::PredictStats) {
    let cfg = MachineConfig::vliw_c6713_like();
    let space = SequenceSpace::paper();
    let verify_fraction = 0.25;
    let budget = 80usize;

    let mut ic = IntelligentCompiler::new(cfg.clone());
    for w in ic_bench::bench_suite(ic_bench::Scale::Small)
        .into_iter()
        .filter(|w| w.name != "adpcm")
        .take(6)
    {
        ic.characterize_program(&w);
        ic.populate_kb_search(&w, 40, seed);
    }
    let ts = TrainingSet::assemble_for_machine(&ic.kb, &space, &cfg.name);
    let tm = select_and_train(&ts, seed).expect("bench corpus trains a model");
    let (model_name, training_rows, spearman) = (tm.model.name(), tm.rows, tm.spearman);

    let workload = ic_workloads::adpcm_scaled(256, 3);
    ic.characterize_program(&workload);
    let feats = ic
        .kb
        .programs
        .iter()
        .find(|p| p.program == workload.name)
        .map(|p| p.features.clone())
        .unwrap_or_default();

    let baseline_eval =
        CachedEvaluator::new(space.clone(), WorkloadEvaluator::new(&workload, &cfg));
    let baseline = random::run(&space, &baseline_eval, budget, seed);
    let baseline_simulations = baseline_eval.stats().misses;

    let eval = CachedEvaluator::new(space.clone(), WorkloadEvaluator::new(&workload, &cfg));
    let ptv = PredictThenVerify::new(&eval, feats, Some(tm), verify_fraction);
    let predicted = ic_predict::run_random(&space, &ptv, budget, seed);
    let ps = ptv.stats();

    let report = PredictReport {
        workload: workload.name.clone(),
        budget: budget as u64,
        verify_fraction,
        model: model_name.into(),
        training_rows,
        spearman,
        baseline_simulations,
        verified: ps.verified,
        predicted: ps.predicted,
        candidates: ps.candidates,
        savings_factor: ps.savings_factor(),
        baseline_best_cycles: baseline.best_cost,
        predicted_best_cycles: predicted.best_cost,
        best_cost_ratio: predicted.best_cost / baseline.best_cost,
    };
    (report, ps)
}

#[derive(Serialize)]
struct Report {
    bench: String,
    workload: String,
    sequences: u64,
    uncached: Throughput,
    prefix_cached: Throughput,
    speedup: f64,
    passes_run: u64,
    passes_elided: u64,
    elision_factor: f64,
    /// Same cached run with the per-pass profiler attached.
    profiled: Throughput,
    /// Wall-time cost of leaving profiling on, in percent of the
    /// unprofiled cached run (min-of-reps on both sides; CI gates <5%).
    profiling_overhead_pct: f64,
    /// Simulated-instruction throughput: legacy interpreter vs the
    /// pre-decoded threaded-code engine (CI gates the speedup).
    sim: SimReport,
    /// Predict-then-verify search vs plain cached search (CI gates
    /// savings_factor >= 3.0 and best_cost_ratio <= 1.05).
    predict: PredictReport,
    /// The unified observability snapshot for the profiled run — the
    /// same schema `icc --metrics-json` and the daemon's
    /// `Admin(Metrics)` emit.
    metrics: ic_obs::Snapshot,
}

/// One measured before/after pass, written to `BENCH_compile.json` at
/// the repo root (path anchored to the crate, not the working dir).
fn emit_report(_c: &mut Criterion) {
    let base = base_module();
    let seqs = sample_sequences();
    const REPS: usize = 9;

    let start = Instant::now();
    let mut changed_uncached = 0usize;
    for _ in 0..REPS {
        changed_uncached = compile_all_uncached(&base, &seqs);
    }
    let uncached_s = start.elapsed().as_secs_f64() / REPS as f64;

    // Cached (unprofiled) vs cached-with-profiler, interleaved rep by
    // rep so clock-speed drift and scheduler noise hit both sides of
    // each pair equally. The overhead estimate is the *median of the
    // per-rep profiled/unprofiled ratios* — robust to a few reps
    // landing in a slow scheduling window, which min-of-reps is not.
    // The profiled result must stay bit-identical (profiling is
    // observation-only) and its cost within the <5% budget.
    let mut changed_cached = 0usize;
    let mut changed_profiled = 0usize;
    let mut cached_s = 0.0;
    let mut profiled_s = 0.0;
    let mut ratios = Vec::with_capacity(REPS);
    let mut stats = ic_passes::CompileCacheStats::default();
    let mut metrics = ic_obs::Snapshot::for_context("bench_compile");
    for rep in 0..=REPS {
        let warmup = rep == 0;

        let cache = PrefixCache::new(base.clone());
        let start = Instant::now();
        changed_cached = compile_all_cached(&cache, &seqs);
        let cached_rep_s = start.elapsed().as_secs_f64();

        let prof = ic_passes::profiler();
        let cache = PrefixCache::with_profiler(
            base.clone(),
            PrefixCacheConfig::default(),
            Some(prof.clone()),
        );
        let start = Instant::now();
        changed_profiled = compile_all_cached(&cache, &seqs);
        let profiled_rep_s = start.elapsed().as_secs_f64();

        if !warmup {
            cached_s += cached_rep_s / REPS as f64;
            profiled_s += profiled_rep_s / REPS as f64;
            ratios.push(profiled_rep_s / cached_rep_s);
            stats = cache.stats();
            metrics.compile_cache = cache.stats();
            metrics.passes = prof.rows();
        }
    }
    assert_eq!(
        changed_uncached, changed_cached,
        "cached compile must be bit-identical"
    );
    assert_eq!(
        changed_cached, changed_profiled,
        "profiled compile must be bit-identical"
    );
    ratios.sort_by(|a, b| a.total_cmp(b));
    let profiling_overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;

    // Simulator-engine throughput on the -Ofast build of the same
    // workload (what a search actually simulates, sequence after
    // sequence against one warm decode cache).
    let mut opt = base.clone();
    apply_sequence(&mut opt, &ic_passes::ofast_sequence());
    let cfg = MachineConfig::vliw_c6713_like();
    let fuel = ic_workloads::adpcm_scaled(256, 3).fuel;
    let sim = measure_sim(&opt, &cfg, fuel, 25);
    metrics.sim = ic_obs::SimStats {
        decode: sim.decode_cache,
        sim_nanos: (sim.decoded.seconds * 1e9) as u64,
        insts_simulated: sim.insts_per_run * sim.runs,
    };
    metrics.corpus = ic_workloads::corpus_stats(ic_workloads::SuiteScale::Small);

    let (predict, pstats) = measure_predict(0xf162b);
    metrics.predict = pstats;

    let report = Report {
        bench: "compile".into(),
        workload: "adpcm_scaled(256)".into(),
        sequences: SAMPLES,
        uncached: Throughput {
            seconds: uncached_s,
            seqs_per_sec: SAMPLES as f64 / uncached_s,
        },
        prefix_cached: Throughput {
            seconds: cached_s,
            seqs_per_sec: SAMPLES as f64 / cached_s,
        },
        speedup: uncached_s / cached_s,
        passes_run: stats.passes_run,
        passes_elided: stats.passes_elided,
        elision_factor: stats.elision_factor(),
        profiled: Throughput {
            seconds: profiled_s,
            seqs_per_sec: SAMPLES as f64 / profiled_s,
        },
        profiling_overhead_pct,
        sim,
        predict,
        metrics,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile.json");
    std::fs::write(path, json + "\n").expect("write BENCH_compile.json");
    println!(
        "wrote BENCH_compile.json: {:.0} -> {:.0} seqs/s ({:.2}x), {:.2}x fewer pass applications, {:+.2}% profiling overhead",
        report.uncached.seqs_per_sec,
        report.prefix_cached.seqs_per_sec,
        report.speedup,
        report.elision_factor,
        report.profiling_overhead_pct
    );
    println!(
        "sim: legacy {:.2}M insts/s -> decoded {:.2}M insts/s ({:.2}x)",
        report.sim.legacy.insts_per_sec / 1e6,
        report.sim.decoded.insts_per_sec / 1e6,
        report.sim.decoded_speedup
    );
    println!(
        "predict: {} model ({} rows, spearman {:.3}): {} verified + {} predicted \
         ({:.1}x fewer simulations), best {:.0} vs baseline {:.0} cycles ({:.3}x)",
        report.predict.model,
        report.predict.training_rows,
        report.predict.spearman,
        report.predict.verified,
        report.predict.predicted,
        report.predict.savings_factor,
        report.predict.predicted_best_cycles,
        report.predict.baseline_best_cycles,
        report.predict.best_cost_ratio
    );
}

criterion_group!(benches, bench_compile, emit_report);
criterion_main!(benches);
