//! `--repeat K` and `--check`: the benchmark run against itself.
//!
//! Both start every run as a child process of this same executable, so
//! each run has a process — and a peak resident set — of its own, just
//! as when the driver starts them.

use crate::report::END_TO_END;
use crate::schedule::Kind;
use crate::stats::{median_of, spread};
use crate::Args;
use serde::value::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// What one child run printed.
struct Child {
    metrics: BTreeMap<String, f64>,
    /// The `check.*` lines: stream and answer digests, `best_vs_o0`.
    checks: BTreeMap<String, String>,
}

fn child(kind: Kind, seed: u64, extra: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(extra)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}:\n{stdout}",
            kind.name(),
            out.status
        ));
    }
    let checks = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("check."))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let last = stdout.lines().last().unwrap_or_default();
    let json = serde_json::value_from_str(last).map_err(|e| format!("result line: {e}"))?;
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Child { metrics, checks })
}

fn kinds(args: &Args) -> Vec<Kind> {
    args.kind.map_or(Kind::ALL.to_vec(), |k| vec![k])
}

/// Run `sets` full sets, set `i` with seed `seed + i` and every other
/// set in reverse workload order, then print for each metric × workload
/// its min / median / max and its quartile spread against the metric's
/// bound. PASS: the spread is within the bound. UNRESOLVED: it is not,
/// and a change within the bound could not be told from noise.
pub fn repeat(args: &Args, sets: usize) -> i32 {
    let mut values: BTreeMap<(Kind, String), Vec<f64>> = BTreeMap::new();
    let extra = ["--seconds".to_string(), args.seconds.to_string()];
    for set in 0..sets {
        let mut order = kinds(args);
        if set % 2 == 1 {
            order.reverse();
        }
        for kind in order {
            match child(kind, args.seed + set as u64, &extra) {
                Ok(c) => {
                    for (name, v) in c.metrics {
                        values.entry((kind, name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
            eprintln!("set {set}: {} done", kind.name());
        }
    }
    println!(
        "{:<15} {:<16} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let mut unresolved = 0;
    for kind in kinds(args) {
        for def in END_TO_END {
            let Some(v) = values.get(&(kind, def.name.to_string())) else {
                continue;
            };
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let (s, bound) = (spread(v), def.bound.unwrap_or(0.0));
            // The acceptance check exempts set-up time from the spread.
            let pass = s <= bound || def.name == "setup_s";
            unresolved += usize::from(!pass);
            println!(
                "{:<15} {:<16} {min:>12.5} {:>12.5} {max:>12.5} {:>7.2}% {:>5.0}%  {}",
                kind.name(),
                def.name,
                median_of(v),
                s * 100.0,
                bound * 100.0,
                match (pass, s <= bound / 3.0) {
                    (true, true) => "PASS",
                    (true, false) => "PASS (above a third of the bound)",
                    _ => "UNRESOLVED",
                },
            );
        }
    }
    println!("{sets} sets, {unresolved} unresolved");
    0
}

/// Per-layer counts that must repeat exactly for a seed. `search.sims`
/// is the daemon's own count and is exact only where one connection
/// fixes the order requests meet the caches in.
const EXACT: [&str; 5] = [
    "search.sims",
    "passes.passes_run",
    "passes.ir_insts_out",
    "machine.simulated_insts",
    "machine.simulated_cycles",
];

/// Each workload twice at reduced size with the same seed: every exact
/// count, every answer (cost, trajectory, best sequence) and
/// `best_vs_o0` must repeat; another seed must change the stream.
pub fn check(args: &Args) -> i32 {
    let extra = ["--trace", "1", "--cycles", "2"].map(String::from);
    let mut bad = 0;
    for kind in kinds(args) {
        let runs: Result<Vec<Child>, String> = [args.seed, args.seed, args.seed + 1]
            .iter()
            .map(|&seed| child(kind, seed, &extra))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let (a, b, other) = (&runs[0], &runs[1], &runs[2]);
        let mut differs: Vec<String> = Vec::new();
        let mut compare = |what: &str, x: Option<String>, y: Option<String>| {
            if x != y {
                differs.push(format!("{what} {x:?} vs {y:?}"));
            }
        };
        let check_of = |c: &Child, key: &str| c.checks.get(key).cloned();
        compare("stream", check_of(a, "stream"), check_of(b, "stream"));
        if kind.answers_repeat() {
            for name in EXACT {
                if name == "search.sims" && kind.connections() > 1 {
                    continue;
                }
                let metric_of = |c: &Child| c.metrics.get(name).map(f64::to_string);
                compare(name, metric_of(a), metric_of(b));
            }
            for key in ["answers", "best_vs_o0"] {
                compare(key, check_of(a, key), check_of(b, key));
            }
        }
        if check_of(a, "stream") == check_of(other, "stream") {
            differs.push("another seed sent the same request stream".into());
        }
        println!(
            "{:<15} {}",
            kind.name(),
            if differs.is_empty() && kind.answers_repeat() {
                "repeats exactly".to_string()
            } else if differs.is_empty() {
                "request stream repeats (answers follow the trained model)".to_string()
            } else {
                format!("DIFFERS: {}", differs.join("; "))
            }
        );
        bad += usize::from(!differs.is_empty());
    }
    i32::from(bad > 0)
}
