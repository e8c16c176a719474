//! The metrics a run prints: their names, units and directions (the
//! same table `BENCHMARK.json` declares; a test holds the two
//! together), and the result line.

use crate::runner::{CycleStat, Record};
use crate::schedule::Kind;
use crate::stats::{geomean, median_of, percentile, sorted, tail_percentile};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Bounds are three times the widest quartile spread seen over ten
/// seeds on any workload (README, *Steadiness*), rounded up to 5 %.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.15),
    e2e("latency_tail_ms", "ms", "lower", 0.20),
    e2e("evals_per_s", "1/s", "higher", 0.15),
    e2e("best_vs_o0", "ratio", "lower", 0.03),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Free-form detail for the table (e.g. which percentile).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    kind: Kind,
    setups_s: &[f64],
    records: &[Record],
    cycles: &[CycleStat],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let headline = sorted(
        records
            .iter()
            .filter(|r| kind.headline(r.step.class) && r.answer.is_ok())
            .map(|r| r.latency_ms)
            .collect(),
    );
    let tail = tail_percentile(headline.len());
    let rates: Vec<f64> = cycles.iter().map(|c| c.evals as f64 / c.wall_s).collect();
    let quality = quality(kind, records);
    vec![
        Metric::new("setup_s", median_of(setups_s), "s", setups_s.len()),
        Metric::new(
            "latency_p50_ms",
            percentile(&headline, 0.5),
            "ms",
            headline.len(),
        ),
        Metric::new(
            "latency_tail_ms",
            percentile(&headline, tail),
            "ms",
            headline.len(),
        )
        .note(format!("p{}", tail * 100.0)),
        Metric::new("evals_per_s", median_of(&rates), "1/s", rates.len())
            .note("median over cycles"),
        Metric::new("best_vs_o0", geomean(&quality), "ratio", quality.len()).note("leading cycles"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

/// Answered cost over −O0 cost of every answer in the workload's
/// leading cycles (see [`Kind::quality_cycles`]).
pub fn quality(kind: Kind, records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.cycle < kind.quality_cycles())
        .filter_map(|r| r.answer.as_ref().ok()?.vs_o0)
        .collect()
}

/// Metric names are restricted to what `BENCHMARK.json` accepts.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest decimal that reads back to the same
    // f64: every digit measured, none invented.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The table for people, then the one-line result for the driver.
pub fn print(attempted: usize, failures: &[String], metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} n={:<7} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for f in failures.iter().take(10) {
        println!("  FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    /// `BENCHMARK.json` declares what this package prints: the same
    /// workloads, the same metrics with the same units, directions and
    /// bounds, within the limits the driver sets.
    #[test]
    fn benchmark_json_declares_what_the_benchmark_prints() {
        let json = serde_json::value_from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let array = |key: &str| json.get(key).and_then(Value::as_array).unwrap().clone();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<String> = array("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
        for w in array("workloads") {
            let why = text(&w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS)
        );
        assert_eq!(
            array("paths")
                .iter()
                .filter_map(Value::as_str)
                .collect::<Vec<_>>(),
            ["bench_e2e"]
        );

        let declared: Vec<(String, String, String, Option<f64>)> = array("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let printed: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.to_string(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(declared, printed);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));

        let declared: Vec<(String, String, String)> = array("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let printed: Vec<_> = crate::layers::per_layer_defs()
            .into_iter()
            .map(|(name, unit, better)| (name, unit.to_string(), better.to_string()))
            .collect();
        assert_eq!(declared, printed);
    }

    #[test]
    fn metric_names_fit_the_declared_charset() {
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
        }
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("passes.simplify-cfg.us"));
    }
}
