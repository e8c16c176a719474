//! The per-layer metrics of a traced run, assembled from the boundary
//! readings, the replay spans, the replay's exact counts and the
//! probes. Names are `<crate>.<metric>`; `ledger.*` are the ledger's
//! own books.

use crate::probes::{AdminProbe, KbProbe, TransportProbe};
use crate::replay::Replay;
use crate::report::{Metric, MetricDef};
use crate::runner::{CycleStat, Record};
use crate::schedule::{Class, Kind};
use crate::span::{self_times, Span, Trace};
use crate::stats::{median_of, percentile, sorted, tail_percentile};
use ic_passes::Opt;
use std::collections::BTreeMap;

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every per-layer metric except the sixteen `passes.<opt>.us`, which
/// [`per_layer_defs`] appends from the pass registry.
const FIXED: [MetricDef; 64] = [
    layer("serve.overhead_us", "us", "lower"),
    layer("serve.overhead_share", "ratio", "lower"),
    layer("serve.proto_decode_us", "us", "lower"),
    layer("serve.fingerprint_us", "us", "lower"),
    layer("serve.request_bytes_p50", "B", "lower"),
    layer("serve.response_bytes_p50", "B", "lower"),
    layer("serve.framed_roundtrip_us", "us", "lower"),
    layer("serve.http_roundtrip_us", "us", "lower"),
    layer("serve.queue_ms_p50", "ms", "lower"),
    layer("serve.queue_ms_tail", "ms", "lower"),
    layer("serve.service_ms_p50", "ms", "lower"),
    layer("serve.flush_ms", "ms", "lower"),
    layer("serve.memo_hit_share", "ratio", "higher"),
    layer("loadgen.encode_us", "us", "lower"),
    layer("loadgen.decode_us", "us", "lower"),
    layer("loadgen.cpu_share", "ratio", "lower"),
    layer("lang.compile_us", "us", "lower"),
    layer("lang.bytes_per_s", "B/s", "higher"),
    layer("core.engine_build_us", "us", "lower"),
    layer("core.run_cold_us", "us", "lower"),
    layer("core.run_warm_us", "us", "lower"),
    layer("passes.apply_us", "us", "lower"),
    layer("passes.cached_apply_us", "us", "lower"),
    layer("passes.elision_ratio", "ratio", "higher"),
    layer("passes.passes_run", "count", "lower"),
    layer("passes.ir_insts_out", "count", "lower"),
    layer("machine.simulate_us", "us", "lower"),
    layer("machine.decode_us", "us", "lower"),
    layer("machine.legacy_us", "us", "lower"),
    layer("machine.insts_per_s", "1/s", "higher"),
    layer("machine.simulated_insts", "count", "lower"),
    layer("machine.simulated_cycles", "count", "lower"),
    layer("machine.oracle_mismatches", "count", "lower"),
    layer("search.evals", "count", "higher"),
    layer("search.sims", "count", "lower"),
    layer("search.sims_per_eval", "ratio", "lower"),
    layer("search.batch_us", "us", "lower"),
    layer("search.overhead_share", "ratio", "lower"),
    layer("search.latency_tail_ms", "ms", "lower"),
    layer("predict.train_ms", "ms", "lower"),
    layer("predict.batch_us", "us", "lower"),
    layer("predict.verified_share", "ratio", "lower"),
    layer("predict.savings_factor", "ratio", "higher"),
    layer("predict.best_cost_ratio", "ratio", "lower"),
    layer("predict.spearman", "ratio", "higher"),
    layer("features.extract_us", "us", "lower"),
    layer("kb.save_ms", "ms", "lower"),
    layer("kb.load_ms", "ms", "lower"),
    layer("kb.to_json_ms", "ms", "lower"),
    layer("kb.merge_us", "us", "lower"),
    layer("kb.bytes", "B", "lower"),
    layer("obs.snapshot_ms", "ms", "lower"),
    layer("obs.snapshot_bytes", "B", "lower"),
    layer("workloads.gen_ms", "ms", "lower"),
    layer("ledger.unattributed_share", "ratio", "lower"),
    layer("ledger.cache_saving_factor", "ratio", "higher"),
    layer("ledger.trace_overhead_pct", "%", "lower"),
    layer("ledger.serve_share", "ratio", "lower"),
    layer("ledger.lang_share", "ratio", "lower"),
    layer("ledger.core_share", "ratio", "lower"),
    layer("ledger.passes_share", "ratio", "lower"),
    layer("ledger.machine_share", "ratio", "lower"),
    layer("ledger.search_share", "ratio", "lower"),
    layer("ledger.predict_share", "ratio", "lower"),
];

/// Crates with a `ledger.<crate>_share`. A batch driver's own time goes
/// to its crate (search, predict), the evaluations under it to theirs.
const SHARE_CRATES: [&str; 7] = [
    "serve", "lang", "core", "passes", "machine", "search", "predict",
];

pub fn pass_metric(opt: Opt) -> String {
    format!("passes.{}.us", opt.name())
}

/// Name, unit and direction of every per-layer metric, in print order.
pub fn per_layer_defs() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = FIXED
        .iter()
        .map(|d| (d.name.to_string(), d.unit, d.better))
        .collect();
    out.extend(Opt::ALL.map(|o| (pass_metric(o), "us", "lower")));
    out
}

pub struct Inputs<'a> {
    pub kind: Kind,
    pub trace: &'a Trace,
    pub records: &'a [Record],
    pub cycles: &'a [CycleStat],
    pub replay: &'a Replay<'a>,
    pub admin: AdminProbe,
    pub kb: KbProbe,
    pub transports: TransportProbe,
    pub gen_ms: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median duration (µs) and count of the spans called `name`.
fn span_us(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> (f64, usize) {
    by_name
        .get(name)
        .map_or((0.0, 0), |v| (median_of(v), v.len()))
}

pub fn per_layer(inp: Inputs<'_>) -> Vec<Metric> {
    let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        values.insert(name.to_string(), (value, samples));
    };

    // Boundary readings of the traced round trips.
    let traced: Vec<&Record> = inp
        .records
        .iter()
        .filter(|r| r.wire.is_some() && r.answer.is_ok())
        .collect();
    let headline: Vec<&Record> = traced
        .iter()
        .copied()
        .filter(|r| inp.kind.headline(r.step.class))
        .collect();
    let wire_us = |r: &Record, f: fn(&crate::daemon::Wire) -> std::time::Duration| {
        r.wire.as_ref().map_or(0.0, |w| f(w).as_secs_f64() * 1e6)
    };
    let trip_us = |r: &Record| wire_us(r, |w| w.received - w.encoded);
    let answer =
        |r: &Record, f: fn(&crate::oracle::Answer) -> f64| r.answer.as_ref().map_or(0.0, f);
    let overhead: Vec<f64> = headline
        .iter()
        .map(|r| (trip_us(r) - answer(r, |a| (a.service_ms + a.queue_ms) * 1e3)).max(0.0))
        .collect();
    let latency = sorted(headline.iter().map(|r| r.latency_ms).collect());
    let n = headline.len();
    put("serve.overhead_us", median_of(&overhead), n);
    let p50 = percentile(&latency, 0.5);
    if p50 > 0.0 {
        put("serve.overhead_share", median_of(&overhead) / 1e3 / p50, n);
    }
    let med = |f: &dyn Fn(&Record) -> f64, set: &[&Record]| {
        median_of(&set.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };
    put(
        "serve.request_bytes_p50",
        med(
            &|r| r.wire.map_or(0.0, |w| w.request_bytes as f64),
            &headline,
        ),
        n,
    );
    put(
        "serve.response_bytes_p50",
        med(
            &|r| r.wire.map_or(0.0, |w| w.response_bytes as f64),
            &headline,
        ),
        n,
    );
    let queue = sorted(headline.iter().map(|r| answer(r, |a| a.queue_ms)).collect());
    put("serve.queue_ms_p50", percentile(&queue, 0.5), n);
    put(
        "serve.queue_ms_tail",
        percentile(&queue, tail_percentile(n)),
        n,
    );
    put(
        "serve.service_ms_p50",
        med(&|r| answer(r, |a| a.service_ms), &headline),
        n,
    );
    put(
        "loadgen.encode_us",
        med(&|r| wire_us(r, |w| w.encoded - w.start), &traced),
        traced.len(),
    );
    put(
        "loadgen.decode_us",
        med(&|r| wire_us(r, |w| w.decoded - w.received), &traced),
        traced.len(),
    );
    let total_us: f64 = traced
        .iter()
        .map(|r| wire_us(r, |w| w.decoded - w.start))
        .sum();
    let trips_us: f64 = traced.iter().map(|r| trip_us(r)).sum();
    if total_us > 0.0 {
        put("loadgen.cpu_share", 1.0 - trips_us / total_us, traced.len());
    }
    let searches = sorted(
        traced
            .iter()
            .filter(|r| r.step.class == Class::Search)
            .map(|r| r.latency_ms)
            .collect(),
    );
    put(
        "search.latency_tail_ms",
        percentile(&searches, tail_percentile(searches.len())),
        searches.len(),
    );
    // The daemon's own account of cycle 0's searches (exact on
    // single-connection workloads: a seed fixes them).
    let first: Vec<&Record> = traced
        .iter()
        .copied()
        .filter(|r| r.cycle == 0 && r.step.class == Class::Search)
        .collect();
    let evals: f64 = first.iter().map(|r| answer(r, |a| a.evals as f64)).sum();
    let sims: f64 = first.iter().map(|r| answer(r, |a| a.sims as f64)).sum();
    put("search.evals", evals, first.len());
    put("search.sims", sims, first.len());
    if evals > 0.0 {
        put("search.sims_per_eval", sims / evals, first.len());
    }
    let flushes: Vec<f64> = traced
        .iter()
        .filter(|r| r.step.class == Class::Flush)
        .map(|r| r.latency_ms)
        .collect();
    if flushes.is_empty() {
        put("serve.flush_ms", inp.admin.flush_ms, 1);
    } else {
        put("serve.flush_ms", median_of(&flushes), flushes.len());
    }

    // Tracing overhead: traced and untraced cycles alternate.
    let rate = |traced: bool| {
        median_of(
            &inp.cycles
                .iter()
                .filter(|c| c.traced == traced)
                .map(|c| c.evals as f64 / c.wall_s)
                .collect::<Vec<f64>>(),
        )
    };
    if rate(true) > 0.0 && rate(false) > 0.0 {
        put(
            "ledger.trace_overhead_pct",
            (rate(false) / rate(true) - 1.0) * 100.0,
            inp.cycles.len(),
        );
    }

    // Replay and probe spans.
    let spans = inp.trace.snapshot();
    let selfs = self_times(&spans);
    let mut dur_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(&selfs) {
        dur_us.entry(s.name).or_default().push(us(s.dur_ns()));
        *self_ns.entry(s.name).or_default() += self_time;
    }
    for (metric, span) in [
        ("serve.proto_decode_us", "serve.proto_decode"),
        ("serve.fingerprint_us", "serve.fingerprint"),
        ("lang.compile_us", "lang.compile"),
        ("core.engine_build_us", "core.engine_build"),
        ("core.run_cold_us", "core.run_cold"),
        ("core.run_warm_us", "core.run_warm"),
        ("passes.apply_us", "passes.apply"),
        ("passes.cached_apply_us", "passes.cached_apply"),
        ("machine.simulate_us", "machine.simulate"),
        ("machine.decode_us", "machine.decode"),
        ("machine.legacy_us", "machine.legacy"),
        ("search.batch_us", "search.batch"),
        ("predict.batch_us", "predict.batch"),
        ("features.extract_us", "features.extract"),
    ] {
        let (value, samples) = span_us(&dur_us, span);
        put(metric, value, samples);
    }
    let total_s = |name: &str| {
        dur_us
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e6)
    };
    let counts = &inp.replay.counts;
    if total_s("machine.simulate") > 0.0 {
        put(
            "machine.insts_per_s",
            counts.simulated_insts as f64 / total_s("machine.simulate"),
            dur_us["machine.simulate"].len(),
        );
    }
    if total_s("lang.compile") > 0.0 {
        put(
            "lang.bytes_per_s",
            counts.source_bytes as f64 / total_s("lang.compile"),
            dur_us["lang.compile"].len(),
        );
    }
    if total_s("search.batch") > 0.0 {
        put(
            "search.overhead_share",
            self_ns["search.batch"] as f64 / 1e9 / total_s("search.batch"),
            dur_us["search.batch"].len(),
        );
    }
    let replayed = counts.replayed as usize;
    put("passes.passes_run", counts.passes_run as f64, replayed);
    put("passes.ir_insts_out", counts.ir_insts_out as f64, replayed);
    put(
        "machine.simulated_insts",
        counts.simulated_insts as f64,
        replayed,
    );
    put(
        "machine.simulated_cycles",
        counts.simulated_cycles as f64,
        replayed,
    );
    put(
        "machine.oracle_mismatches",
        counts.oracle_mismatches as f64,
        replayed,
    );
    let requested = counts.passes_elided + counts.passes_applied;
    if requested > 0 {
        put(
            "passes.elision_ratio",
            counts.passes_elided as f64 / requested as f64,
            requested as usize,
        );
    }
    for row in inp.replay.profiler.rows() {
        if let Some(opt) = Opt::from_name(&row.pass) {
            put(&pass_metric(opt), us(row.mean_ns()), row.calls as usize);
        }
    }

    // Layer shares of the uncached path: self time of every span under
    // a `replay` root, by crate. The root's own time and the
    // `core.evaluate` wrapper are the replay's glue — unattributed.
    let (by_crate, glue, total) = path_shares(&spans, &selfs);
    if total > 0 {
        put(
            "ledger.unattributed_share",
            glue as f64 / total as f64,
            replayed,
        );
        for c in SHARE_CRATES {
            let ns = by_crate.get(c).copied().unwrap_or(0);
            put(
                &format!("ledger.{c}_share"),
                ns as f64 / total as f64,
                replayed,
            );
        }
    }
    // What the daemon's caches save: the uncached path's wall time over
    // the round trips of the same requests.
    let trip_of: BTreeMap<u32, f64> = traced.iter().map(|r| (r.req, trip_us(r))).collect();
    let (mut path_us, mut daemon_us) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name == "replay") {
        if let Some(trip) = trip_of.get(&s.req) {
            path_us += us(s.dur_ns());
            daemon_us += trip;
        }
    }
    if daemon_us > 0.0 {
        put("ledger.cache_saving_factor", path_us / daemon_us, replayed);
    }

    // Probes.
    let a = &inp.admin;
    put("serve.memo_hit_share", a.memo_hit_share, 1);
    put("obs.snapshot_ms", a.snapshot_ms, 1);
    put("obs.snapshot_bytes", a.snapshot_bytes, 1);
    put("predict.verified_share", a.verified_share, 1);
    put("predict.savings_factor", a.savings_factor, 1);
    let r = inp.replay;
    put(
        "predict.best_cost_ratio",
        crate::stats::geomean(&r.cost_ratios),
        r.cost_ratios.len(),
    );
    if !r.spearmans.is_empty() {
        put(
            "predict.spearman",
            r.spearmans.iter().sum::<f64>() / r.spearmans.len() as f64,
            r.spearmans.len(),
        );
    }
    let k = &inp.kb;
    put("predict.train_ms", k.train_ms, 1);
    put("kb.save_ms", k.save_ms, 1);
    put("kb.load_ms", k.load_ms, 1);
    put("kb.to_json_ms", k.to_json_ms, 1);
    put("kb.merge_us", k.merge_us, 1);
    put("kb.bytes", k.bytes, 1);
    put("serve.framed_roundtrip_us", inp.transports.framed_us, 1);
    put("serve.http_roundtrip_us", inp.transports.http_us, 1);
    put("workloads.gen_ms", inp.gen_ms, 1);

    // Every declared metric is printed; a layer the workload never
    // enters reads 0 with no samples.
    per_layer_defs()
        .into_iter()
        .map(|(name, unit, _)| {
            let (value, samples) = values.get(&name).copied().unwrap_or((0.0, 0));
            Metric::new(&name, value, unit, samples)
        })
        .collect()
}

/// Summed self time of the spans under `replay` roots, by crate (the
/// span name up to its first dot), with the glue and the total.
fn path_shares(spans: &[Span], selfs: &[u64]) -> (BTreeMap<&'static str, u64>, u64, u64) {
    let mut on_path = vec![false; spans.len()];
    let mut by_crate: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut glue, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        on_path[i] = match s.parent {
            None => s.name == "replay",
            Some(p) => on_path[p as usize],
        };
        if !on_path[i] {
            continue;
        }
        total += selfs[i];
        if s.name == "replay" || s.name == "core.evaluate" {
            glue += selfs[i];
        } else {
            let krate = s.name.split('.').next().unwrap_or(s.name);
            *by_crate.entry(krate).or_default() += selfs[i];
        }
    }
    (by_crate, glue, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;
    use std::collections::HashSet;

    #[test]
    fn per_layer_names_are_valid_unique_and_within_the_limit() {
        let defs = per_layer_defs();
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        let mut seen = HashSet::new();
        for (name, unit, better) in &defs {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(better));
        }
        assert!(seen.contains("passes.simplify-cfg.us"));
    }

    #[test]
    fn shares_count_only_the_replay_path() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, "replay", 0, 100),
            span(1, Some(0), "serve.proto_decode", 0, 10),
            span(2, Some(0), "search.batch", 10, 100),
            span(3, Some(2), "core.evaluate", 20, 90),
            span(4, Some(3), "machine.simulate", 30, 90),
            span(5, None, "probe", 100, 200),
            span(6, Some(5), "machine.legacy", 100, 200),
        ];
        let selfs = self_times(&spans);
        let (by_crate, glue, total) = path_shares(&spans, &selfs);
        assert_eq!(total, 100);
        assert_eq!(glue, 10, "the core.evaluate wrapper's own 10 ns");
        assert_eq!(by_crate["serve"], 10);
        assert_eq!(by_crate["search"], 20);
        assert_eq!(by_crate["machine"], 60);
    }
}
