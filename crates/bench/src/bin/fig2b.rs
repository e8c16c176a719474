//! Fig. 2(b): RANDOM vs FOCUSSED iterative search on adpcm — how close
//! each gets to the best achievable performance per evaluation count.
//!
//! The paper's numbers: after 10 evaluations RANDOM reaches ~38% of the
//! available improvement, FOCUSSED ~86%, and RANDOM needs >80
//! evaluations to match. `--model iid|markov` selects the model family.
//! `--cache FILE` persists the evaluation cache to a knowledge-base JSON
//! file so re-runs skip already-simulated sequences.

use ic_bench::{banner, bench_suite, Args, Scale, Table};
use ic_core::controller::WorkloadEvaluator;
use ic_core::IntelligentCompiler;
use ic_kb::KnowledgeBase;
use ic_machine::MachineConfig;
use ic_predict::{select_and_train, PredictThenVerify, TrainingSet};
use ic_search::focused::ModelKind;
use ic_search::{focused, random, CachedEvaluator, SequenceSpace};
use std::path::Path;

fn main() {
    let args = Args::parse();
    banner("Fig 2(b) — RANDOM vs FOCUSSED search on adpcm (vliw-c6713-like)");

    let config = MachineConfig::vliw_c6713_like();
    let workload = match args.scale {
        Scale::Full => ic_workloads::adpcm(),
        Scale::Small => ic_workloads::adpcm_scaled(512, 12345),
    };
    let space = SequenceSpace::paper();
    let eval = CachedEvaluator::new(space.clone(), WorkloadEvaluator::new(&workload, &config));
    let cache_file = args.flag("cache").map(|s| s.to_string());
    let ctx = ic_core::context_fingerprint(&workload, &config);
    let mut cache_kb = match &cache_file {
        Some(f) if Path::new(f).exists() => {
            let kb = KnowledgeBase::load(Path::new(f)).expect("cache file parses");
            let warmed = ic_core::evalcache::warm_from_kb(&eval, &kb, &ctx);
            println!("warmed {warmed} cached evaluations from {f}");
            kb
        }
        _ => KnowledgeBase::new(),
    };
    let o0 = eval.inner().baseline_cycles() as f64;
    let budget = 100usize;
    let trials = 20usize; // the paper averages 20 random trials

    let kind = match args.flag("model") {
        Some("iid") => ModelKind::Iid,
        _ => ModelKind::Markov,
    };
    let predict_on = args.extra.iter().any(|a| a == "--predict");
    let verify_fraction: f64 = args
        .flag("verify-fraction")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    let corpus = ic_bench::corpus_stats(args.scale);
    println!(
        "training corpus: {} programs ({} hand-written + {} generated across {} families, {} generated insts)",
        corpus.programs, corpus.hand_written, corpus.generated, corpus.families, corpus.generated_insts
    );
    println!("training the predictive model on the other suite programs ...");
    let mut ic = IntelligentCompiler::new(config.clone());
    for w in bench_suite(args.scale) {
        if w.name == "adpcm" {
            continue;
        }
        ic.characterize_program(&w);
        // GA-driven search data: the focused model trains on the output
        // of real searches, as in Agakov et al.
        ic.populate_kb_search(&w, 60, args.seed);
    }
    // Wider neighbour pool for the 65-program corpus: the few nearest
    // programs alone may all be tiny generated kernels (see fig2a).
    let model = ic
        .focused_model(&workload, 8, 8, kind)
        .expect("kb has neighbours");

    println!(
        "running RANDOM ({trials} trials) and FOCUSSED ({trials} trials), budget {budget} ..."
    );
    let rnd = random::mean_trajectory(&space, &eval, budget, trials, args.seed);
    let mut foc = vec![0.0; budget];
    for t in 0..trials {
        let r = focused::run(
            &space,
            &eval,
            budget,
            &model,
            args.seed.wrapping_add(1000 + t as u64 * 7919),
        );
        for (a, b) in foc.iter_mut().zip(&r.best_so_far) {
            *a += b;
        }
    }
    for v in &mut foc {
        *v /= trials as f64;
    }

    // FOCUSSED with predicted pre-ranking (`--predict`): train a cycles
    // model on the other programs' accumulated search data — adpcm is
    // held out, so this doubles as a transfer test — then re-run the
    // same 20 trials through predict-then-verify on a cold cache, so
    // simulations saved are counted honestly rather than absorbed by
    // the memo the plain runs just filled.
    let predicted = if predict_on {
        let ts = TrainingSet::assemble_for_machine(&ic.kb, &space, &config.name);
        match select_and_train(&ts, args.seed) {
            None => {
                println!(
                    "predict: training set too small ({} joined rows) — skipping predicted run",
                    ts.len()
                );
                None
            }
            Some(tm) => {
                println!(
                    "predict: {} model on {} rows (held-out spearman {:.3}), \
                     verify_fraction {verify_fraction}",
                    tm.model.name(),
                    tm.rows,
                    tm.spearman
                );
                ic.characterize_program(&workload);
                let feats = ic
                    .kb
                    .programs
                    .iter()
                    .find(|p| p.program == workload.name)
                    .map(|p| p.features.clone())
                    .unwrap_or_default();
                let peval =
                    CachedEvaluator::new(space.clone(), WorkloadEvaluator::new(&workload, &config));
                let ptv = PredictThenVerify::new(&peval, feats, Some(tm), verify_fraction);
                let mut traj = vec![0.0; budget];
                for t in 0..trials {
                    let r = ic_predict::run_focused(
                        &ptv,
                        budget,
                        &model,
                        args.seed.wrapping_add(1000 + t as u64 * 7919),
                    );
                    for (a, b) in traj.iter_mut().zip(&r.best_so_far) {
                        *a += b;
                    }
                }
                for v in &mut traj {
                    *v /= trials as f64;
                }
                Some((traj, ptv.stats()))
            }
        }
    } else {
        None
    };

    // "100%" = best cost either search ever saw (the achievable optimum
    // proxy; full exhaustive ground truth is fig2a --scale full).
    let best = rnd
        .iter()
        .chain(foc.iter())
        .chain(predicted.iter().flat_map(|(p, _)| p.iter()))
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let improvement = |cost: f64| ((o0 - cost) / (o0 - best)).clamp(0.0, 1.0) * 100.0;

    let widths: &[usize] = if predicted.is_some() {
        &[8, 14, 14, 14]
    } else {
        &[8, 14, 14]
    };
    let t = Table::new(widths);
    t.sep();
    let mut header = vec!["evals".into(), "RANDOM %".into(), "FOCUSSED %".into()];
    if predicted.is_some() {
        header.push("PREDICT %".into());
    }
    t.row(&header);
    t.sep();
    let marks = [1, 2, 5, 10, 20, 50, 80, 100];
    for &m in &marks {
        let mut row = vec![
            format!("{m}"),
            format!("{:.1}", improvement(rnd[m - 1])),
            format!("{:.1}", improvement(foc[m - 1])),
        ];
        if let Some((p, _)) = &predicted {
            row.push(format!("{:.1}", improvement(p[m - 1])));
        }
        t.row(&row);
    }
    t.sep();

    let r10 = improvement(rnd[9]);
    let f10 = improvement(foc[9]);
    // First evaluation count where RANDOM reaches FOCUSSED@10.
    let crossover = rnd
        .iter()
        .position(|&c| improvement(c) >= f10)
        .map(|i| (i + 1).to_string())
        .unwrap_or_else(|| format!("> {budget}"));
    println!();
    println!("RANDOM   @10 evals : {r10:.1}% of available improvement (paper: ~38%)");
    println!("FOCUSSED @10 evals : {f10:.1}% of available improvement (paper: ~86%)");
    println!("RANDOM needs {crossover} evaluations to match FOCUSSED@10 (paper: >80)");
    println!("model family: {:?}", kind);
    if let Some((p, ps)) = &predicted {
        println!(
            "PREDICT  @10 evals : {:.1}% (FOCUSSED + predicted pre-ranking, verify {verify_fraction})",
            improvement(p[9])
        );
        println!(
            "prediction savings : {} verified + {} predicted of {} candidates \
             ({:.1}x fewer simulations); final Δ vs FOCUSSED {:+.1} pts",
            ps.verified,
            ps.predicted,
            ps.candidates,
            ps.savings_factor(),
            improvement(p[budget - 1]) - improvement(foc[budget - 1])
        );
    }

    let stats = eval.stats();
    println!();
    println!(
        "evaluation engine  : {} lookups, {} hits / {} raw simulations ({:.1}% hit rate)",
        stats.lookups(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    println!(
        "raw sim throughput : {:.0} evals/s (aggregate evaluator time)",
        stats.evals_per_second()
    );
    let cstats = eval.inner().compile_stats();
    println!(
        "compile cache      : {} prefix hits / {} misses ({:.1}% hit rate), \
         {} passes run / {} elided ({:.2}x fewer pass applications)",
        cstats.hits,
        cstats.misses,
        cstats.hit_rate() * 100.0,
        cstats.passes_run,
        cstats.passes_elided,
        cstats.elision_factor()
    );
    let sim = eval.inner().sim_stats();
    println!(
        "decode cache       : {} hits / {} misses ({:.1}% hit rate), \
         {} programs / {} bytes resident",
        sim.decode.hits,
        sim.decode.misses,
        sim.decode.hit_rate() * 100.0,
        sim.decode.programs,
        sim.decode.bytes
    );
    println!(
        "simulator          : {} insts in {:.1} ms ({:.2}M simulated insts/s)",
        sim.insts_simulated,
        sim.sim_nanos as f64 / 1e6,
        sim.insts_per_second() / 1e6
    );
    if let Some(f) = cache_file {
        let total = ic_core::evalcache::flush_to_kb(&eval, &mut cache_kb, &ctx);
        cache_kb.save(Path::new(&f)).expect("cache file writes");
        println!("persisted {total} cached evaluations to {f}");
    }
}
