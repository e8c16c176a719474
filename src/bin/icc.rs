//! `icc` — the intelligent-compiler command-line driver.
//!
//! Compile a MinC source file, optimize it (fixed levels, an explicit
//! sequence, or the knowledge-base-driven intelligent modes), run it on a
//! simulated machine, and report counters. Works cold (in-process) or
//! hot (`--remote`, against a running `icc serve` daemon whose caches
//! stay warm across invocations and clients).
//!
//! ```text
//! icc program.mc                         # -O0 on the VLIW config
//! icc program.mc -O2                     # the -Ofast pipeline
//! icc program.mc --seq "licm,unroll4,dce,schedule"
//! icc program.mc --machine amd --counters
//! icc program.mc --emit-ir               # print the optimized IR
//! icc program.mc --search 50 --seed 7    # 50-evaluation random search
//! icc program.mc --kb kb.json --intelligent   # model-predicted sequence
//! icc program.mc -O2 --profile           # per-pass wall-time/IR table
//! icc program.mc --search 50 --metrics-json   # one ic-obs snapshot on stdout
//!
//! icc serve --socket /tmp/ic.sock --kb kb.json    # start the daemon
//! icc serve --http 127.0.0.1:8080                 # + curl-able gateway
//! icc program.mc --remote unix:///tmp/ic.sock --search 50  # search on the daemon
//! icc --remote http://127.0.0.1:8080 --admin metrics --json  # daemon metrics
//! ```

use intelligent_compilers::core::controller::WorkloadEvaluator;
use intelligent_compilers::core::{Error, IntelligentCompiler};
use intelligent_compilers::kb::KnowledgeBase;
use intelligent_compilers::machine::{simulate_default, Counter, MachineConfig};
use intelligent_compilers::obs::{PassProfiler, PassStats, SimStats, Snapshot};
use intelligent_compilers::passes::{
    apply_sequence, apply_sequence_profiled, ofast_sequence, profiler, Opt, PrefixCacheConfig,
};
use intelligent_compilers::predict::{
    select_and_train, PredictThenVerify, TrainedModel, TrainingSet, MIN_TRAINING_ROWS,
};
use intelligent_compilers::search::{random, CachedEvaluator, SequenceSpace};
use intelligent_compilers::serve::proto::{
    AdminRequest, ErrorKind, ErrorResponse, Request, Response,
};
use intelligent_compilers::serve::{Client, JobContext, ServeConfig, Server};
use intelligent_compilers::workloads::{Kind, Workload};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// A user-facing argument/usage error.
fn bad(msg: impl Into<String>) -> Error {
    Error::BadRequest(msg.into())
}

/// A transport or environment failure that is not the user's fault.
fn internal(msg: impl Into<String>) -> Error {
    Error::Internal(msg.into())
}

struct Options {
    input: Option<String>,
    machine: String,
    seq: Option<Vec<Opt>>,
    olevel: u8,
    counters: bool,
    emit_ir: bool,
    search: Option<usize>,
    seed: u64,
    fuel: u64,
    kb: Option<String>,
    intelligent: bool,
    stats: bool,
    json: bool,
    profile: bool,
    metrics_json: bool,
    remote: Option<String>,
    admin: Option<String>,
    deadline_ms: u64,
    predict: bool,
    verify_fraction: f64,
    train_model: bool,
    keep: usize,
}

const USAGE: &str = "\
usage: icc <file.mc> [options]
       icc serve [serve options]
  -O0|-O1|-O2          fixed optimization level (O1 = scalar cleanups, O2 = Ofast)
  --seq a,b,c          explicit comma-separated optimization sequence
  --machine NAME       vliw | amd | tiny        (default: vliw)
  --counters           print the full counter vector
  --emit-ir            print the optimized IR instead of running
  --search N           random-search N sequences, use the best (with --kb:
                       warm from / persist the evaluation cache)
  --predict            with --search and --kb: rank candidates with the
                       kb's learned cycles model and simulate only the
                       top --verify-fraction of them (predict-then-verify)
  --verify-fraction F  verified fraction of unknown candidates, (0, 1]
                       (default 0.25; 1.0 = bit-identical to no --predict)
  --train-model        train a cycles model from the kb's evaluation
                       records (leave-one-program-out selection over
                       ridge/kNN/forest), store it versioned, and exit
  --intelligent        predict the sequence from the knowledge base (needs --kb)
  --kb FILE            knowledge-base JSON to read/extend
  --stats              print compile-cache / eval-cache statistics after
                       --search or --intelligent
  --json               machine-readable JSON for --stats / --admin output
  --profile            record per-pass wall time and IR-size deltas, print
                       the table on stderr (observation-only: the compiled
                       IR is bit-identical with or without it)
  --metrics-json       print one unified ic-obs metrics snapshot as JSON on
                       stdout (implies per-pass profiling; same schema the
                       daemon serves for `--admin metrics`)
  --seed N             RNG seed (default 42)
  --fuel N             instruction budget (default 100M)
  --remote URI         route compile/search through a running `icc serve`
                       daemon (bit-identical results, warm shared caches).
                       URI schemes: unix://PATH, tcp://HOST:PORT,
                       http://HOST:PORT; a bare path means unix://
  --deadline-ms N      per-request deadline for --remote requests (0 = server default)
  --admin CMD          with --remote: stats | metrics | flush | compact | shutdown
  --keep N             entry ceiling per context for `--admin compact`
                       (default 4096)
  --list-opts          print the optimization registry and exit
  --build-kb FILE [N]  build a knowledge base from the built-in suite and exit

serve options (after `icc serve`):
  --socket PATH        Unix socket to listen on (default: $TMPDIR/ic-serve.sock)
  --tcp ADDR           also listen on a TCP address (host:port)
  --http ADDR          also serve the HTTP/JSON gateway on host:port
                       (POST /v1/compile|search|characterize|admin,
                       GET /v1/metrics, GET /v1/healthz)
  --shards N           worker shards; requests route to shards by
                       workload+machine fingerprint (default 4)
  --workers N          worker threads per shard (default: min(cores, 4))
  --queue N            per-shard queue capacity; a full shard rejects with
                       a structured retry-after error (default 64)
  --deadline-ms N      default per-request deadline (0 = none)
  --kb FILE            knowledge-base store: engines warm from it at first
                       sight and snapshots persist on flush/shutdown
  --metrics-interval-ms N  also persist metrics snapshots to the kb every
                       N ms (0 = only on flush/shutdown; minimum 100)
  --no-profile         disable per-pass profiling in the daemon's engines
  --predict            predict-then-verify `random` searches: each engine
                       loads/trains a cycles model from the kb and
                       simulates only the top --verify-fraction
  --verify-fraction F  verified fraction for daemon searches, (0, 1]
  --retrain-rows N     retrain an engine's model after N new evaluations
                       land in its memo (checked at every flush; 0 never)
  SIGTERM/SIGINT, or a client `--admin shutdown`, drain in-flight
  requests, persist cache snapshots, and exit 0.";

fn parse_args() -> Result<Options, Error> {
    let mut o = Options {
        input: None,
        machine: "vliw".into(),
        seq: None,
        olevel: 0,
        counters: false,
        emit_ir: false,
        search: None,
        seed: 42,
        fuel: 100_000_000,
        kb: None,
        intelligent: false,
        stats: false,
        json: false,
        profile: false,
        metrics_json: false,
        remote: None,
        admin: None,
        deadline_ms: 0,
        predict: false,
        verify_fraction: 0.25,
        train_model: false,
        keep: 4096,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-O0" => o.olevel = 0,
            "-O1" => o.olevel = 1,
            "-O2" | "-Ofast" => o.olevel = 2,
            "--seq" => {
                let spec = it.next().ok_or_else(|| bad("--seq needs a value"))?;
                let seq: Result<Vec<Opt>, Error> = spec
                    .split(',')
                    .map(|s| {
                        Opt::from_name(s.trim()).ok_or_else(|| {
                            bad(format!("unknown optimization `{s}` (try --list-opts)"))
                        })
                    })
                    .collect();
                o.seq = Some(seq?);
            }
            "--machine" => o.machine = it.next().ok_or_else(|| bad("--machine needs a value"))?,
            "--counters" => o.counters = true,
            "--emit-ir" => o.emit_ir = true,
            "--search" => {
                o.search = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad("--search needs a number"))?,
                )
            }
            "--intelligent" => o.intelligent = true,
            "--predict" => o.predict = true,
            "--verify-fraction" => {
                o.verify_fraction = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--verify-fraction needs a number"))?;
                if !(o.verify_fraction > 0.0 && o.verify_fraction <= 1.0) {
                    return Err(bad(format!(
                        "--verify-fraction {} is outside (0, 1]",
                        o.verify_fraction
                    )));
                }
            }
            "--train-model" => o.train_model = true,
            "--keep" => {
                o.keep = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| bad("--keep needs a number >= 1"))?
            }
            "--stats" => o.stats = true,
            "--json" => o.json = true,
            "--profile" => o.profile = true,
            "--metrics-json" => o.metrics_json = true,
            "--remote" => {
                o.remote = Some(it.next().ok_or_else(|| {
                    bad("--remote needs a URI (unix://, tcp://, http://) or socket path")
                })?)
            }
            "--admin" => o.admin = Some(it.next().ok_or_else(|| bad("--admin needs a command"))?),
            "--deadline-ms" => {
                o.deadline_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--deadline-ms needs a number"))?
            }
            "--kb" => o.kb = Some(it.next().ok_or_else(|| bad("--kb needs a file"))?),
            "--seed" => {
                o.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--seed needs a number"))?
            }
            "--fuel" => {
                o.fuel = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--fuel needs a number"))?
            }
            "--list-opts" => {
                for opt in Opt::ALL {
                    println!("{}", opt.name());
                }
                std::process::exit(0);
            }
            "--build-kb" => {
                // Populate a knowledge base from the built-in suite and
                // save it (the training step for --intelligent).
                let path = it.next().expect("--build-kb needs an output file");
                let trials: usize = it.next().and_then(|v| v.parse().ok()).unwrap_or(20);
                build_kb(&path, trials);
                std::process::exit(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => o.input = Some(other.to_string()),
            other => return Err(bad(format!("unknown flag `{other}`"))),
        }
    }
    if o.metrics_json && o.emit_ir {
        return Err(bad(
            "--metrics-json and --emit-ir both claim stdout; drop one (--profile prints to stderr)",
        ));
    }
    if o.remote.is_some() && (o.profile || o.metrics_json) && o.admin.is_none() {
        return Err(bad(
            "--profile/--metrics-json profile the local pipeline; with --remote use `--admin metrics`",
        ));
    }
    Ok(o)
}

/// `icc --build-kb kb.json [trials]`: characterize the architecture and
/// the whole built-in suite, run `trials` random-sequence experiments per
/// program, and save the knowledge base in the documented JSON format.
fn build_kb(path: &str, trials: usize) {
    let config = MachineConfig::vliw_c6713_like();
    let mut ic = IntelligentCompiler::new(config);
    eprintln!("icc: characterizing architecture by microbenchmarks ...");
    ic.characterize_architecture();
    for w in intelligent_compilers::workloads::suite() {
        eprintln!("icc: {} — characterize + {trials} experiments", w.name);
        ic.characterize_program(&w);
        ic.populate_kb(&w, trials, 42);
    }
    ic.kb
        .save(std::path::Path::new(path))
        .unwrap_or_else(|e| panic!("saving {path}: {e}"));
    eprintln!(
        "icc: wrote {} ({} programs, {} experiments)",
        path,
        ic.kb.programs.len(),
        ic.kb.experiments.len()
    );
}

fn machine_for(name: &str) -> Result<MachineConfig, Error> {
    Ok(match name {
        "vliw" => MachineConfig::vliw_c6713_like(),
        "amd" => MachineConfig::superscalar_amd_like(),
        "tiny" => MachineConfig::test_tiny(),
        other => return Err(bad(format!("unknown machine `{other}` (vliw|amd|tiny)"))),
    })
}

// -------------------------------------------------------------------
// Observability output
// -------------------------------------------------------------------

/// Render the per-pass profile rows as an aligned table. Every
/// registered pass appears, ran or not — full-registry coverage is the
/// point of the profile.
fn pass_table(rows: &[PassStats]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>8} {:>10} {:>10}  insts in→out",
        "pass", "calls", "changed", "total ms", "mean µs"
    );
    for r in rows {
        let mean_us = if r.calls > 0 {
            r.wall_ns as f64 / r.calls as f64 / 1e3
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>8} {:>10.3} {:>10.1}  {}→{}",
            r.pass,
            r.calls,
            r.changed,
            r.wall_ns as f64 / 1e6,
            mean_us,
            r.insts_in,
            r.insts_out
        );
    }
    out
}

/// `--profile`: the per-pass table, on stderr so it composes with
/// `--emit-ir` / `--metrics-json` (whose stdout must stay clean).
fn print_pass_profile(prof: &PassProfiler) {
    let rows = prof.rows();
    eprint!(
        "icc: per-pass profile ({} registered passes):\n{}",
        rows.len(),
        pass_table(&rows)
    );
}

/// Human rendering of a unified metrics snapshot (`--admin metrics`
/// without `--json`).
fn print_snapshot_human(s: &Snapshot) {
    println!(
        "context `{}` (schema v{}), up {:.0}s",
        s.context,
        s.schema_version,
        s.service.uptime_ms as f64 / 1e3
    );
    println!(
        "requests: {} compile, {} search, {} characterize; {} rejected, {} cancelled, {} bad",
        s.service.compile_requests,
        s.service.search_requests,
        s.service.characterize_requests,
        s.service.requests_rejected,
        s.service.requests_cancelled,
        s.service.bad_requests,
    );
    println!(
        "queue depth {}, {} warm engines",
        s.service.queue_depth, s.service.engines
    );
    println!(
        "eval cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
        s.eval_cache.hits,
        s.eval_cache.misses,
        s.eval_cache.hit_rate() * 100.0,
        s.eval_cache.entries,
    );
    println!(
        "compile cache: {} hits / {} misses, {} passes run / {} elided ({:.2}x fewer pass applications)",
        s.compile_cache.hits,
        s.compile_cache.misses,
        s.compile_cache.passes_run,
        s.compile_cache.passes_elided,
        s.compile_cache.elision_factor(),
    );
    println!(
        "decode cache: {} hits / {} misses ({:.1}% hit rate), {} programs / {} bytes resident",
        s.sim.decode.hits,
        s.sim.decode.misses,
        s.sim.decode.hit_rate() * 100.0,
        s.sim.decode.programs,
        s.sim.decode.bytes,
    );
    println!(
        "simulator: {} insts in {:.1} ms ({:.2}M simulated insts/s)",
        s.sim.insts_simulated,
        s.sim.sim_nanos as f64 / 1e6,
        s.sim.insts_per_second() / 1e6,
    );
    for (name, v) in &s.counters {
        println!("counter {name} = {v}");
    }
    for h in &s.histograms {
        let mean = if h.count > 0 {
            h.total as f64 / h.count as f64
        } else {
            0.0
        };
        println!(
            "histogram {}: {} samples, mean {:.1}, {} log2 buckets",
            h.name,
            h.count,
            mean,
            h.buckets.len()
        );
    }
    if !s.passes.is_empty() {
        print!("per-pass profile:\n{}", pass_table(&s.passes));
    }
}

// -------------------------------------------------------------------
// `icc serve` — run the compilation-as-a-service daemon
// -------------------------------------------------------------------

/// Set from the SIGTERM/SIGINT handler; polled by the server's accept
/// loop to begin a graceful drain.
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    // An atomic store is async-signal-safe; everything else happens on
    // the server threads.
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Raw libc `signal(2)` — the workspace vendors no `libc` crate, but
    // the symbol is always present in the platform libc we already link.
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_shutdown_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn serve_main(mut args: std::iter::Skip<std::env::Args>) -> Result<(), Error> {
    let mut cfg = ServeConfig::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => {
                cfg.socket = args
                    .next()
                    .ok_or_else(|| bad("--socket needs a path"))?
                    .into()
            }
            "--tcp" => cfg.tcp = Some(args.next().ok_or_else(|| bad("--tcp needs an address"))?),
            "--http" => cfg.http = Some(args.next().ok_or_else(|| bad("--http needs an address"))?),
            "--shards" => {
                cfg.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--shards needs a number"))?
            }
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--workers needs a number"))?
            }
            "--queue" => {
                cfg.queue_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--queue needs a number"))?
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--deadline-ms needs a number"))?
            }
            "--metrics-interval-ms" => {
                cfg.metrics_interval_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--metrics-interval-ms needs a number"))?
            }
            "--no-profile" => cfg.profile_passes = false,
            "--predict" => cfg.predict = true,
            "--verify-fraction" => {
                cfg.verify_fraction = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--verify-fraction needs a number"))?
            }
            "--retrain-rows" => {
                cfg.retrain_rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("--retrain-rows needs a number"))?
            }
            "--kb" => {
                cfg.kb_path = Some(args.next().ok_or_else(|| bad("--kb needs a file"))?.into())
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(bad(format!("unknown serve flag `{other}`"))),
        }
    }
    // Round-trip the mutated fields through the builder so hand-edited
    // values get the same validation as programmatic configs.
    cfg.validate()?;
    #[cfg(unix)]
    install_signal_handlers();
    let handle = Server::spawn(cfg.clone(), Some(&SHUTDOWN_SIGNAL))
        .map_err(|e| internal(format!("starting server: {e}")))?;
    eprintln!(
        "icc: serving on {}{}{} ({} shards x {} workers, queue capacity {}, kb {})",
        handle.socket().display(),
        handle
            .tcp_addr
            .map(|a| format!(" and tcp {a}"))
            .unwrap_or_default(),
        handle
            .http_addr
            .map(|a| format!(" and http {a}"))
            .unwrap_or_default(),
        cfg.shards,
        cfg.workers,
        cfg.queue_capacity,
        cfg.kb_path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "none".into()),
    );
    let stats = handle.join();
    eprintln!(
        "icc: ic-serve drained and exiting: {} compiles, {} searches, {} eval-cache hits / {} misses persisted",
        stats.compile_requests, stats.search_requests, stats.eval_hits, stats.eval_misses
    );
    Ok(())
}

// -------------------------------------------------------------------
// `icc --remote` — the client mode
// -------------------------------------------------------------------

fn print_request_stats(stats: &intelligent_compilers::serve::RequestStats, json: bool) {
    if json {
        println!("{}", serde_json::to_string(stats).expect("stats serialize"));
    } else {
        eprintln!(
            "icc: remote stats  : {:.1}ms queued, {:.1}ms service, eval {} hits / {} misses ({:.1}% hit rate), compile {} hits / {} misses",
            stats.queue_ms,
            stats.service_ms,
            stats.eval_hits,
            stats.eval_misses,
            stats.eval_hit_rate() * 100.0,
            stats.compile_hits,
            stats.compile_misses,
        );
    }
}

/// Lift a structured server error back into the unified error type,
/// inverting the daemon's `ErrorResponse::from(Error)` mapping.
fn remote_error(e: &ErrorResponse) -> Error {
    match e.kind {
        ErrorKind::Busy => Error::Busy {
            retry_after_ms: e.retry_after_ms.unwrap_or(0),
        },
        ErrorKind::DeadlineExceeded => Error::DeadlineExceeded(e.message.clone()),
        ErrorKind::BadRequest => Error::BadRequest(e.message.clone()),
        ErrorKind::ShuttingDown => Error::ShuttingDown,
        ErrorKind::Internal => Error::Internal(format!("server: {}", e.message)),
    }
}

fn run_remote(o: &Options, uri: &str) -> Result<(), Error> {
    let mut client = Client::connect(uri).map_err(|e| internal(format!("{uri}: {e}")))?;
    let transport = |e: intelligent_compilers::serve::ClientError| internal(e.to_string());

    // Admin commands need no input file.
    if let Some(cmd) = &o.admin {
        let req = match cmd.as_str() {
            "stats" => AdminRequest::Stats,
            "metrics" => AdminRequest::Metrics,
            "flush" => AdminRequest::Flush,
            "compact" => AdminRequest::Compact {
                max_entries_per_context: o.keep,
            },
            "shutdown" => AdminRequest::Shutdown,
            other => return Err(bad(format!("unknown admin command `{other}`"))),
        };
        match client.request(&Request::Admin(req)).map_err(transport)? {
            Response::Stats(s) => {
                if o.json {
                    println!("{}", serde_json::to_string(&s).expect("stats serialize"));
                } else {
                    println!(
                        "requests: {} compile, {} search, {} characterize\n\
                         rejected: {} busy, {} deadline, {} bad\n\
                         queue depth {}, {} warm engines, up {:.0}s\n\
                         eval cache: {} hits / {} misses, {} entries\n\
                         compile cache: {} hits / {} misses",
                        s.compile_requests,
                        s.search_requests,
                        s.characterize_requests,
                        s.busy_rejections,
                        s.deadline_cancellations,
                        s.bad_requests,
                        s.queue_depth,
                        s.engines,
                        s.uptime_ms / 1e3,
                        s.eval_hits,
                        s.eval_misses,
                        s.eval_entries,
                        s.compile_hits,
                        s.compile_misses,
                    );
                }
            }
            Response::Metrics(s) => {
                if o.json {
                    println!("{}", s.to_json());
                } else {
                    print_snapshot_human(&s);
                }
            }
            Response::Admin(a) => {
                if a.action == "compact" {
                    eprintln!(
                        "icc: server acknowledged compact ({} cache entries persisted, {} dropped)",
                        a.persisted_entries, a.dropped_entries
                    );
                } else {
                    eprintln!(
                        "icc: server acknowledged {} ({} cache entries persisted)",
                        a.action, a.persisted_entries
                    );
                }
            }
            Response::Error(e) => return Err(remote_error(&e)),
            other => return Err(internal(format!("unexpected response: {other:?}"))),
        }
        return Ok(());
    }

    let Some(path) = o.input.clone() else {
        return Err(bad(format!("no input file\n{USAGE}")));
    };
    let source = std::fs::read_to_string(&path).map_err(|e| bad(format!("{path}: {e}")))?;
    let name = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    let ctx = JobContext {
        name,
        source,
        machine: o.machine.clone(),
        fuel: o.fuel,
        deadline_ms: o.deadline_ms,
    };

    // Decide the sequence: remotely searched, or fixed.
    let sequence: Vec<String> = if let Some(budget) = o.search {
        let resp = client
            .search(ctx.clone(), "random", budget, o.seed)
            .map_err(transport)?;
        match resp {
            Response::Search(s) => {
                eprintln!(
                    "icc: remote search best {:.0} cycles after {} evaluations ({} raw simulations, {} cache hits)",
                    s.best_cost, s.evaluations, s.stats.eval_misses, s.stats.eval_hits
                );
                if o.stats {
                    print_request_stats(&s.stats, o.json);
                }
                s.best_sequence
            }
            Response::Error(e) => return Err(remote_error(&e)),
            other => return Err(internal(format!("unexpected response: {other:?}"))),
        }
    } else if let Some(seq) = &o.seq {
        seq.iter().map(|s| s.name().to_string()).collect()
    } else {
        let seq = match o.olevel {
            0 => vec![],
            1 => vec![
                Opt::ConstProp,
                Opt::ConstFold,
                Opt::CopyProp,
                Opt::Cse,
                Opt::Dce,
                Opt::SimplifyCfg,
            ],
            _ => ofast_sequence(),
        };
        seq.iter().map(|s| s.name().to_string()).collect()
    };

    // Compile + run on the daemon.
    let resp = client
        .compile(ctx, sequence.clone(), o.emit_ir)
        .map_err(transport)?;
    match resp {
        Response::Compile(c) => {
            if let Some(ir) = &c.ir {
                print!("{ir}");
                return Ok(());
            }
            if !sequence.is_empty() {
                eprintln!("icc: applied [{}] remotely", sequence.join(" "));
            }
            // With --json, stdout carries exactly one JSON object (the
            // stats); the human-readable lines move to stderr.
            let human = |line: String| {
                if o.json && o.stats {
                    eprintln!("{line}");
                } else {
                    println!("{line}");
                }
            };
            if c.cycles.is_finite() {
                human(format!(
                    "result: Some({})   cycles: {}   instructions: {}   IPC: {:.3}",
                    c.result,
                    c.cycles as u64,
                    c.instructions,
                    if c.cycles > 0.0 {
                        c.instructions as f64 / c.cycles
                    } else {
                        0.0
                    }
                ));
            } else {
                human("result: fuel exceeded   cycles: inf".to_string());
            }
            if o.counters {
                for (name, v) in &c.counters {
                    human(format!("  {name:10} = {v}"));
                }
            }
            if o.stats && o.search.is_none() {
                print_request_stats(&c.stats, o.json);
            }
            Ok(())
        }
        Response::Error(e) => Err(remote_error(&e)),
        other => Err(internal(format!("unexpected response: {other:?}"))),
    }
}

fn main() -> ExitCode {
    // Subcommand dispatch: `icc serve ...` runs the daemon.
    let mut args = std::env::args().skip(1);
    if let Some(first) = args.next() {
        if first == "serve" {
            return match serve_main(args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("icc: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("icc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Local-mode eval/compile-cache statistics, printable as text or JSON
/// (`--stats --json`) so harnesses can assert on hit rates without
/// scraping log lines.
fn print_local_stats(
    stats: &intelligent_compilers::search::CacheStats,
    cstats: &intelligent_compilers::passes::CompileCacheStats,
    sim: &SimStats,
    json: bool,
) {
    if json {
        // Hand-rolled object: the schema here is the documented one.
        // Keys are never renamed (harnesses parse it); they go only when
        // the layer they describe is deleted.
        println!(
            "{{\"eval_lookups\":{},\"eval_hits\":{},\"eval_misses\":{},\"eval_hit_rate\":{:.4},\"evals_per_second\":{:.1},\"compile_hits\":{},\"compile_misses\":{},\"compile_hit_rate\":{:.4},\"passes_run\":{},\"passes_elided\":{},\"elision_factor\":{:.3},\"decode_hits\":{},\"decode_misses\":{},\"decode_hit_rate\":{:.4},\"sim_nanos\":{},\"insts_simulated\":{},\"sim_insts_per_second\":{:.0}}}",
            stats.lookups(),
            stats.hits,
            stats.misses,
            stats.hit_rate(),
            stats.evals_per_second(),
            cstats.hits,
            cstats.misses,
            cstats.hit_rate(),
            cstats.passes_run,
            cstats.passes_elided,
            cstats.elision_factor(),
            sim.decode.hits,
            sim.decode.misses,
            sim.decode.hit_rate(),
            sim.sim_nanos,
            sim.insts_simulated,
            sim.insts_per_second()
        );
    } else {
        eprintln!(
            "icc: eval cache    : {} lookups, {} hits / {} misses ({:.1}% hit rate), {:.0} evals/s raw",
            stats.lookups(),
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.evals_per_second()
        );
        eprintln!(
            "icc: compile cache : {} prefix hits / {} misses ({:.1}% hit rate), {} passes run / {} elided ({:.2}x fewer pass applications)",
            cstats.hits,
            cstats.misses,
            cstats.hit_rate() * 100.0,
            cstats.passes_run,
            cstats.passes_elided,
            cstats.elision_factor()
        );
        eprintln!(
            "icc: decode cache  : {} hits / {} misses ({:.1}% hit rate), {} programs / {} bytes resident",
            sim.decode.hits,
            sim.decode.misses,
            sim.decode.hit_rate() * 100.0,
            sim.decode.programs,
            sim.decode.bytes
        );
        eprintln!(
            "icc: simulator     : {} insts in {:.1} ms ({:.2}M simulated insts/s)",
            sim.insts_simulated,
            sim.sim_nanos as f64 / 1e6,
            sim.insts_per_second() / 1e6
        );
    }
}

fn run() -> Result<(), Error> {
    let o = parse_args()?;

    // Client mode: route everything through the daemon.
    if let Some(sock) = o.remote.clone() {
        return run_remote(&o, &sock);
    }
    if o.admin.is_some() {
        return Err(bad("--admin needs --remote URI"));
    }

    let Some(path) = o.input.clone() else {
        return Err(bad(format!("no input file\n{USAGE}")));
    };
    let source = std::fs::read_to_string(&path).map_err(|e| bad(format!("{path}: {e}")))?;
    let name = std::path::Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();

    let config = machine_for(&o.machine)?;
    let module = intelligent_compilers::lang::compile(&name, &source)
        .map_err(|e| Error::Frontend(format!("{path}:{e}")))?;
    eprintln!(
        "icc: compiled `{name}`: {} functions, {} instructions (-O0)",
        module.funcs.len(),
        module.num_insts()
    );

    // `--train-model`: train a cycles predictor from the kb's
    // accumulated evaluations, persist it versioned, exit.
    if o.train_model {
        let kb_path =
            o.kb.clone()
                .ok_or_else(|| bad("--train-model needs --kb FILE"))?;
        let mut kb = KnowledgeBase::load(std::path::Path::new(&kb_path))
            .map_err(|e| internal(format!("{kb_path}: {e}")))?;
        let w = Workload {
            name: name.clone(),
            kind: Kind::AluBound,
            source: source.clone(),
            fuel: o.fuel,
            meta: None,
        };
        let ctx = intelligent_compilers::core::context_fingerprint(&w, &config);
        let space = SequenceSpace::paper();
        let ts = TrainingSet::assemble_for_machine(&kb, &space, &config.name);
        let Some(mut tm) = select_and_train(&ts, o.seed) else {
            return Err(bad(format!(
                "training set too small: {} joined rows in {kb_path} (need {MIN_TRAINING_ROWS}+; run --search with --kb first)",
                ts.len()
            )));
        };
        tm.version = kb.model_for(&ctx).map_or(1, |m| m.version + 1);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        kb.upsert_model(tm.to_record(&ctx, unix_ms));
        kb.save(std::path::Path::new(&kb_path))
            .map_err(|e| internal(format!("{kb_path}: {e}")))?;
        eprintln!(
            "icc: trained {} model v{} on {} rows (held-out spearman {:.3}); stored for {ctx} in {kb_path}",
            tm.model.name(),
            tm.version,
            tm.rows,
            tm.spearman,
        );
        return Ok(());
    }

    // One shared per-pass profiler covers both the search's trial
    // compilations and the final build; `--metrics-json` implies it.
    let prof: Option<PassProfiler> = (o.profile || o.metrics_json).then(profiler);
    // The unified snapshot `--metrics-json` prints — the same schema the
    // daemon serves for `Admin(Metrics)`.
    let mut snap = Snapshot::for_context("icc");

    // Decide the sequence.
    let seq: Vec<Opt> = if let Some(seq) = o.seq.clone() {
        seq
    } else if let Some(budget) = o.search {
        let w = Workload {
            name: name.clone(),
            kind: Kind::AluBound,
            source: source.clone(),
            fuel: o.fuel,
            meta: None,
        };
        let space = SequenceSpace::paper();
        let eval = CachedEvaluator::new(
            space.clone(),
            WorkloadEvaluator::with_profiler(
                &w,
                &config,
                PrefixCacheConfig::default(),
                prof.clone(),
            ),
        );
        // With --kb, warm the memo table from prior runs of the same
        // workload/machine context and persist the new costs afterwards.
        let ctx = intelligent_compilers::core::context_fingerprint(&w, &config);
        let mut kb = match &o.kb {
            Some(f) if std::path::Path::new(f).exists() => {
                let kb = KnowledgeBase::load(std::path::Path::new(f))
                    .map_err(|e| internal(format!("{f}: {e}")))?;
                let warmed = intelligent_compilers::core::evalcache::warm_from_kb(&eval, &kb, &ctx);
                eprintln!("icc: warmed {warmed} cached evaluations from {f}");
                kb
            }
            _ => KnowledgeBase::new(),
        };
        // Register the program's -O0 characterization so this run's
        // eval records join future model-training sets (the join key is
        // the context's program name); doubles as the program block of
        // every prediction row below.
        let feats = match simulate_default(&module, &config, o.fuel) {
            Ok(r0) => intelligent_compilers::features::combined_features(&module, &r0.counters),
            Err(_) => Vec::new(),
        };
        if !feats.is_empty() && !kb.programs.iter().any(|p| p.program == name) {
            kb.upsert_program(intelligent_compilers::kb::ProgramRecord {
                program: name.clone(),
                feature_names: intelligent_compilers::features::combined_feature_names(),
                features: feats.clone(),
                suite: None,
            });
        }
        let r = if o.predict && o.verify_fraction < 1.0 {
            // Predict-then-verify: rank the batch with the kb's cycles
            // model (trained on the spot from the kb corpus when no
            // versioned record exists yet), simulate only the top
            // fraction, answer the rest with clamped predictions.
            let model = kb
                .model_for(&ctx)
                .and_then(TrainedModel::from_record)
                .or_else(|| {
                    let ts = TrainingSet::assemble_for_machine(&kb, &space, &config.name);
                    select_and_train(&ts, o.seed)
                });
            if model.is_none() {
                eprintln!(
                    "icc: no cycles model and too little kb training data (need {MIN_TRAINING_ROWS}+ rows); searching without prediction"
                );
            }
            let ptv = PredictThenVerify::new(&eval, feats.clone(), model, o.verify_fraction);
            let r = intelligent_compilers::predict::run_random(&space, &ptv, budget, o.seed);
            let ps = ptv.stats();
            eprintln!(
                "icc: predict       : model v{} ({} training rows): {} verified + {} predicted of {} candidates ({:.1}x fewer simulations)",
                ps.model_version,
                ps.training_rows,
                ps.verified,
                ps.predicted,
                ps.candidates,
                ps.savings_factor()
            );
            snap.predict = ps;
            r
        } else {
            random::run(&space, &eval, budget, o.seed)
        };
        let stats = eval.stats();
        eprintln!(
            "icc: search best {:.0} cycles after {} evaluations ({} raw simulations, {} cache hits)",
            r.best_cost,
            r.evaluations(),
            stats.misses,
            stats.hits
        );
        if let Some(f) = &o.kb {
            intelligent_compilers::core::evalcache::flush_to_kb(&eval, &mut kb, &ctx);
            kb.save(std::path::Path::new(f))
                .map_err(|e| internal(format!("{f}: {e}")))?;
            eprintln!("icc: persisted evaluation cache to {f}");
        }
        if o.stats {
            print_local_stats(
                &stats,
                &eval.inner().compile_stats(),
                &eval.inner().sim_stats(),
                o.json,
            );
        }
        snap.eval_cache = stats;
        snap.compile_cache = eval.inner().compile_stats();
        snap.sim = eval.inner().sim_stats();
        snap.counters
            .push(("icc.search_evaluations".into(), r.evaluations() as u64));
        r.best_seq
    } else if o.intelligent {
        let kb_path =
            o.kb.clone()
                .ok_or_else(|| bad("--intelligent needs --kb FILE"))?;
        let kb = KnowledgeBase::load(std::path::Path::new(&kb_path))
            .map_err(|e| internal(format!("{kb_path}: {e}")))?;
        let mut ic = IntelligentCompiler::new(config.clone());
        ic.kb = kb;
        let w = Workload {
            name: name.clone(),
            kind: Kind::AluBound,
            source: source.clone(),
            fuel: o.fuel,
            meta: None,
        };
        let (_m, seq) = ic.compile_one_shot(&w);
        eprintln!(
            "icc: model predicted [{}]",
            seq.iter().map(|s| s.name()).collect::<Vec<_>>().join(" ")
        );
        if o.stats {
            eprintln!(
                "icc: eval cache    : 0 lookups (one-shot prediction runs no trial evaluations)"
            );
            eprintln!("icc: compile cache : 1 pipeline compiled (the predicted sequence)");
        }
        seq
    } else {
        match o.olevel {
            0 => vec![],
            1 => vec![
                Opt::ConstProp,
                Opt::ConstFold,
                Opt::CopyProp,
                Opt::Cse,
                Opt::Dce,
                Opt::SimplifyCfg,
            ],
            _ => ofast_sequence(),
        }
    };

    let mut optimized = module.clone();
    // Profiled and unprofiled application produce bit-identical IR
    // (pinned by tests/profile_determinism.rs); the profiled path only
    // adds wall-time/IR-size recording.
    let changed = match &prof {
        Some(p) => apply_sequence_profiled(&mut optimized, &seq, p),
        None => apply_sequence(&mut optimized, &seq),
    };
    if !seq.is_empty() {
        eprintln!(
            "icc: applied [{}] ({changed} passes changed something): {} instructions",
            seq.iter().map(|s| s.name()).collect::<Vec<_>>().join(" "),
            optimized.num_insts()
        );
    }

    if o.emit_ir {
        print!(
            "{}",
            intelligent_compilers::ir::print::module_to_string(&optimized)
        );
        if let Some(p) = &prof {
            print_pass_profile(p);
        }
        return Ok(());
    }

    let r = simulate_default(&optimized, &config, o.fuel)
        .map_err(|e| internal(format!("execution failed: {e}")))?;
    // When stdout is reserved for a single JSON object (--stats --json,
    // or --metrics-json), the human-readable lines move to stderr.
    let human = |line: String| {
        if (o.json && o.stats) || o.metrics_json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    human(format!(
        "result: {:?}   cycles: {}   instructions: {}   IPC: {:.3}",
        r.ret_i64(),
        r.cycles(),
        r.instructions(),
        r.counters.ipc()
    ));
    if o.counters {
        for c in Counter::ALL {
            human(format!("  {:10} = {}", c.name(), r.counters.get(c)));
        }
    }
    if let Some(p) = &prof {
        if o.profile {
            print_pass_profile(p);
        }
        snap.passes = p.rows();
    }
    if o.metrics_json {
        snap.canonicalize();
        println!("{}", snap.to_json());
    }
    Ok(())
}
