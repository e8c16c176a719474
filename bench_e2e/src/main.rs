//! `bench_e2e` — the repository's end-to-end benchmark: five workloads
//! against an in-process `ic-serve` daemon over a real unix socket,
//! end-to-end metrics measured with tracing off, per-layer metrics from
//! a separate traced run. See README.md beside this package's manifest.

mod corpus;
mod daemon;
mod layers;
mod oracle;
mod probes;
mod repeat;
mod replay;
mod report;
mod runner;
mod schedule;
mod span;
mod stats;

use runner::{CycleStat, Record, Session};
use schedule::{Class, Kind};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What `BENCHMARK.json` declares as `run_seconds`.
const RUN_SECONDS: f64 = 12.0;

pub struct Args {
    pub kind: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many cycles instead of measuring for `seconds`
    /// (the reduced size `--check` runs at).
    pub cycles: Option<u64>,
    pub repeat: Option<usize>,
    pub check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--cycles N]\n       \
         bench_e2e --repeat K [--workload W] [--seed N] [--seconds S]\n       \
         bench_e2e --check [--workload W] [--seed N]",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        kind: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        cycles: None,
        repeat: None,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.kind = Some(Kind::from_name(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--cycles" => a.cycles = Some(value().parse().unwrap_or_else(|_| usage())),
            "--repeat" => a.repeat = Some(value().parse().unwrap_or_else(|_| usage())),
            "--check" => a.check = true,
            _ => usage(),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 170.0) {
        usage();
    }
    a
}

/// Where the benchmark keeps its files: beside the executable, so
/// inside the build directory — in the checkout, outside the sources.
fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.parent()
        .expect("the executable sits in a directory")
        .join("bench_e2e.tmp")
}

fn main() {
    let args = parse_args();
    let code = if args.check {
        repeat::check(&args)
    } else if let Some(sets) = args.repeat {
        repeat::repeat(&args, sets)
    } else {
        run(&args, args.kind.unwrap_or_else(|| usage()))
    };
    // Not a return: the last session's daemon threads are left running
    // (see `Session::abandon`) and end with the process.
    std::process::exit(code);
}

/// How often a cycle-0 request of this class is replayed in process:
/// every search, a seeded one-in-k of the cheap, numerous compiles.
fn replay_one_in(kind: Kind, class: Class) -> u64 {
    match (kind, class) {
        (_, Class::Search | Class::Characterize) => 1,
        (Kind::CompileWarm, _) => 16,
        (Kind::Mixed, _) => 8,
        _ => 4,
    }
}

fn run(args: &Args, kind: Kind) -> i32 {
    let root = scratch_root();
    let scratch = root.join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("the build directory is writable");
    // Relative paths from here on: a unix socket path is limited to 108
    // bytes and a checkout can sit anywhere.
    std::env::set_current_dir(&scratch).expect("scratch directory exists");

    // A traced run reports no set-up time, so it sets up once.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setups_s = Vec::with_capacity(setups);
    let mut session: Option<Session> = None;
    for i in 0..setups {
        if let Some(prev) = session.take() {
            prev.stop();
        }
        let t0 = Instant::now();
        session = Some(runner::set_up(
            kind,
            args.seed,
            &PathBuf::from(format!("s{i}")),
        ));
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let trace = args.trace.then(span::Trace::new);
    if trace.is_some() {
        session.enable_tracing();
    }

    // Whole cycles; stop at the cycle boundary nearest the target. A
    // traced run alternates traced and untraced cycles, starting traced.
    let least = if args.trace { 2 } else { kind.quality_cycles() };
    let mut records: Vec<Record> = Vec::new();
    let mut cycles: Vec<CycleStat> = Vec::new();
    let t0 = Instant::now();
    let mut last_wall = 0.0;
    loop {
        let cycle = cycles.len() as u64;
        let more = match args.cycles {
            Some(n) => cycle < n,
            None => cycle < least || t0.elapsed().as_secs_f64() + last_wall / 2.0 < args.seconds,
        };
        if !more {
            break;
        }
        let traced = trace.as_ref().filter(|_| cycle.is_multiple_of(2));
        let (recs, stat) = session.run_cycle(cycle, traced, records.len() as u32);
        records.extend(recs);
        last_wall = stat.wall_s;
        cycles.push(stat);
    }
    let measured_s = t0.elapsed().as_secs_f64();
    let rss = runner::peak_rss_mb();

    let mut failures: Vec<String> = session
        .prime
        .iter()
        .chain(&records)
        .filter_map(|r| r.answer.as_ref().err().cloned())
        .collect();
    let attempted = session.prime.len() + records.len();
    let quality = stats::geomean(&report::quality(kind, &records));
    // Every answer of cycle 0 (cost, trajectory, best sequence), in
    // request order per connection.
    let answers = records
        .iter()
        .filter(|r| r.cycle == 0)
        .filter_map(|r| r.answer.as_ref().ok())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, a| {
            (h ^ a.digest).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let stream = schedule::digest(&schedule::cycle(kind, args.seed, 0, session.shape));

    let metrics = match &trace {
        None => report::end_to_end(kind, &setups_s, &records, &cycles, rss),
        Some(trace) => {
            let (metrics, mismatches) =
                traced_metrics(kind, args.seed, trace, &mut session, &records, &cycles);
            failures.extend(mismatches);
            let path = format!("../trace-{}.json", kind.name());
            trace
                .write_json(Path::new(&path))
                .expect("the build directory is writable");
            metrics
        }
    };

    session.abandon();
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "workload {} seed {} trace {}: {} cycles in {measured_s:.2} s, {} threads available",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        cycles.len(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    println!("  check.stream {stream:016x}");
    println!("  check.answers {answers:016x}");
    println!("  check.best_vs_o0 {quality}");
    report::print(attempted, &failures, &metrics);
    i32::from(!failures.is_empty())
}

/// The traced half of a traced run: probes of the live daemon, replay
/// of cycle 0's sample, probes of what the daemon left on disk.
fn traced_metrics(
    kind: Kind,
    seed: u64,
    trace: &span::Trace,
    session: &mut Session,
    records: &[Record],
    cycles: &[CycleStat],
) -> (Vec<report::Metric>, Vec<String>) {
    // On `search_predict` a flush now would retrain every model; the
    // flush that matters there is the one set-up timed.
    let mut admin = probes::admin(session, kind != Kind::SearchPredict);
    if kind == Kind::SearchPredict {
        admin.flush_ms = session.train_flush_ms;
    }
    let store = session.daemon.kb_path.clone();
    let kb = probes::kb(kind, store.as_deref(), &session.dir, &session.space);
    let models = store
        .filter(|_| kind == Kind::SearchPredict)
        .and_then(|p| ic_kb::KnowledgeBase::load(&p).ok());
    let transports = probes::transports(&session.corpus.programs[0], &session.space, &session.dir);

    let mut replay =
        replay::Replay::new(kind, trace, &session.corpus, session.space.clone(), models);
    for rec in &session.prime {
        replay.prime(rec);
    }
    for rec in records.iter().filter(|r| r.cycle == 0 && r.wire.is_some()) {
        let k = replay_one_in(kind, rec.step.class);
        if schedule::mix(seed, u64::from(rec.req), 6, 0).is_multiple_of(k) {
            replay.request(rec.req, rec);
        }
    }
    replay.finish();
    let metrics = layers::per_layer(layers::Inputs {
        kind,
        trace,
        records,
        cycles,
        replay: &replay,
        admin,
        kb,
        transports,
        gen_ms: session.corpus.gen_ms,
    });
    (metrics, replay.mismatches)
}
