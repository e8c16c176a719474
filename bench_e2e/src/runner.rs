//! Set-up and the timed, closed-loop phase of a workload.

use crate::corpus::{self, Corpus, Program};
use crate::daemon::{Daemon, Wire};
use crate::oracle::{self, Answer};
use crate::schedule::{self, Class, Kind, Op, Shape, Step};
use crate::span::Trace;
use ic_search::SequenceSpace;
use ic_serve::proto::{AdminRequest, CharacterizeRequest, CompileRequest, SearchRequest};
use ic_serve::{Client, Request, Response};
use ic_workloads::SuiteScale;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Full-scale programs `mixed` adds to its Small corpus (the first
/// hand-written ones in registry order).
const MIXED_FULL: usize = 4;

/// `search_predict` keeps every third hand-written Full program (six of
/// eighteen). Every engine trains its own model on the whole knowledge
/// base with leave-one-program-out selection, so training cost grows
/// with the cube of the program count: eighteen programs train for
/// 45 s, six for under 2 s.
const PREDICT_EVERY: usize = 3;

/// One request and what came back.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request id: names the round trip's spans and its replay.
    pub req: u32,
    pub cycle: u64,
    pub step: Step,
    pub latency_ms: f64,
    /// Boundary readings, on traced round trips.
    pub wire: Option<Wire>,
    pub answer: Result<Answer, String>,
}

#[derive(Debug, Clone, Copy)]
pub struct CycleStat {
    pub traced: bool,
    pub wall_s: f64,
    pub evals: u64,
}

struct Lane {
    plain: Client,
    traced: Option<(Client, Arc<Mutex<Wire>>)>,
}

/// A daemon that has been set up and is ready for timed cycles.
pub struct Session {
    pub kind: Kind,
    pub seed: u64,
    pub corpus: Corpus,
    pub shape: Shape,
    pub space: Arc<SequenceSpace>,
    pub daemon: Daemon,
    pub dir: PathBuf,
    /// Set-up requests, checked like timed ones.
    pub prime: Vec<Record>,
    /// `search_predict`: round trip of the flush that trained the models.
    pub train_flush_ms: f64,
    lanes: Vec<Lane>,
}

fn corpus_for(kind: Kind) -> (Corpus, Shape) {
    match kind {
        Kind::CompileCold | Kind::CompileWarm => {
            let c = corpus::build(SuiteScale::Small, false);
            let n = c.programs.len() as u32;
            (
                c,
                Shape {
                    programs: n,
                    small: n,
                },
            )
        }
        Kind::SearchCold => {
            let c = corpus::build(SuiteScale::Full, false);
            let n = c.programs.len() as u32;
            (
                c,
                Shape {
                    programs: n,
                    small: 0,
                },
            )
        }
        Kind::SearchPredict => {
            let mut c = corpus::build(SuiteScale::Full, true);
            let mut i = 0;
            c.programs.retain(|_| {
                i += 1;
                (i - 1) % PREDICT_EVERY == 0
            });
            let n = c.programs.len() as u32;
            (
                c,
                Shape {
                    programs: n,
                    small: 0,
                },
            )
        }
        Kind::Mixed => {
            let mut c = corpus::build(SuiteScale::Small, false);
            let small = c.programs.len() as u32;
            let full = corpus::build(SuiteScale::Full, true);
            c.gen_ms += full.gen_ms;
            c.programs
                .extend(full.programs.into_iter().take(MIXED_FULL));
            let n = c.programs.len() as u32;
            (c, Shape { programs: n, small })
        }
    }
}

/// The wire request for a step.
pub fn materialise(step: &Step, program: &Program, space: &SequenceSpace) -> Request {
    match step.op {
        Op::Compile { sequence } => Request::Compile(CompileRequest {
            ctx: program.ctx(step.epoch),
            sequence: space
                .decode(sequence)
                .iter()
                .map(|o| o.name().to_string())
                .collect(),
            emit_ir: false,
        }),
        Op::Search { budget, seed } => Request::Search(SearchRequest {
            ctx: program.ctx(step.epoch),
            strategy: "random".into(),
            budget: budget as usize,
            seed,
        }),
        Op::Characterize => Request::Characterize(CharacterizeRequest {
            ctx: program.ctx(step.epoch),
        }),
        Op::Flush => Request::Admin(AdminRequest::Flush),
    }
}

fn send(
    client: &mut Client,
    req: u32,
    cycle: u64,
    step: &Step,
    corpus: &Corpus,
    space: &SequenceSpace,
) -> Record {
    let program = &corpus.programs[step.program as usize];
    let request = materialise(step, program, space);
    let t0 = Instant::now();
    let response = client.request(&request);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let answer = match &response {
        Ok(r) => oracle::check(step, program, r),
        Err(e) => Err(format!("{}: {e}", program.workload.name)),
    };
    Record {
        req,
        cycle,
        step: *step,
        latency_ms,
        wire: None,
        answer,
    }
}

/// One key of the daemon's metrics JSON, read by name: the benchmark
/// does not depend on the snapshot's typed layout, and a key a later
/// change removes reads as absent.
fn metrics_json(client: &mut Client) -> Option<serde::value::Value> {
    match client.request(&Request::Admin(AdminRequest::Metrics)) {
        Ok(Response::Metrics(snapshot)) => Some(snapshot.to_value()),
        _ => None,
    }
}

pub fn set_up(kind: Kind, seed: u64, dir: &Path) -> Session {
    let (corpus, shape) = corpus_for(kind);
    let space = Arc::new(SequenceSpace::paper());
    let daemon = Daemon::spawn(kind, dir, false);
    let mut lanes: Vec<Lane> = (0..kind.connections())
        .map(|_| Lane {
            plain: daemon.connect(),
            traced: None,
        })
        .collect();
    let prime: Vec<Record> = schedule::prime(kind, seed, shape)
        .iter()
        .map(|step| send(&mut lanes[0].plain, 0, 0, step, &corpus, &space))
        .collect();
    let train_flush_ms = if kind == Kind::SearchPredict {
        train(&mut lanes[0].plain, shape.programs as u64)
    } else {
        0.0
    };
    Session {
        kind,
        seed,
        corpus,
        shape,
        space,
        daemon,
        dir: dir.to_path_buf(),
        prime,
        train_flush_ms,
        lanes,
    }
}

/// `Admin(Flush)` writes the primed evaluations through to the
/// knowledge base and lets every engine train its cost model; repeat
/// until the daemon reports one training per context. Returns the
/// first flush's round trip in milliseconds.
fn train(client: &mut Client, contexts: u64) -> f64 {
    let mut first_ms = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        client.flush().expect("flush round trip");
        first_ms.get_or_insert(t0.elapsed().as_secs_f64() * 1e3);
        let trained = metrics_json(client)
            .and_then(|m| m.get("predict")?.get("retrains")?.as_u64())
            .unwrap_or(0);
        if trained >= contexts {
            return first_ms.unwrap_or(0.0);
        }
    }
    panic!("set-up: the daemon did not train a cost model for every context");
}

impl Session {
    /// Open the traced twin of every connection.
    pub fn enable_tracing(&mut self) {
        for lane in &mut self.lanes {
            lane.traced = Some(self.daemon.connect_traced());
        }
    }

    /// Run cycle `cycle` to completion on every connection. With a
    /// trace, round trips go through the traced transport and leave
    /// their boundary spans; `first_req` numbers them.
    pub fn run_cycle(
        &mut self,
        cycle: u64,
        trace: Option<&Trace>,
        first_req: u32,
    ) -> (Vec<Record>, CycleStat) {
        let lists = schedule::cycle(self.kind, self.seed, cycle, self.shape);
        let (corpus, space) = (&self.corpus, &self.space);
        let mut offsets = Vec::with_capacity(lists.len());
        let mut next = first_req;
        for list in &lists {
            offsets.push(next);
            next += list.len() as u32;
        }
        let t0 = Instant::now();
        let per_lane: Vec<Vec<Record>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(&lists)
                .zip(&offsets)
                .map(|((lane, list), &offset)| {
                    scope.spawn(move || match (trace, lane.traced.as_mut()) {
                        (Some(trace), Some((client, wire))) => list
                            .iter()
                            .enumerate()
                            .map(|(i, step)| {
                                let req = offset + i as u32;
                                let mut rec = send(client, req, cycle, step, corpus, space);
                                let w = *wire.lock().expect("wire cell is never poisoned");
                                boundary_spans(trace, req, &w, &rec);
                                rec.wire = Some(w);
                                rec
                            })
                            .collect(),
                        _ => list
                            .iter()
                            .enumerate()
                            .map(|(i, step)| {
                                let req = offset + i as u32;
                                send(&mut lane.plain, req, cycle, step, corpus, space)
                            })
                            .collect::<Vec<Record>>(),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load generator thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let records: Vec<Record> = per_lane.into_iter().flatten().collect();
        let stat = CycleStat {
            traced: trace.is_some(),
            wall_s,
            evals: records
                .iter()
                .filter_map(|r| r.answer.as_ref().ok())
                .map(|a| a.evals)
                .sum(),
        };
        (records, stat)
    }

    /// A client on the first connection, for probes after the run.
    pub fn admin(&mut self) -> &mut Client {
        &mut self.lanes[0].plain
    }

    pub fn stop(self) {
        drop(self.lanes);
        self.daemon.stop();
    }

    /// Leave the daemon to die with the process. Its graceful drain ends
    /// in a write-through that, on `search_predict`, retrains every cost
    /// model on all the run added — most of a minute that measures
    /// nothing — so the last session of a run is not drained.
    pub fn abandon(self) {
        std::mem::forget(self);
    }
}

/// The spans of one traced round trip: the request, its three boundary
/// steps, and inside the round trip the daemon's own account of it
/// (`stats.queue_ms`, `stats.service_ms`), laid back to back against
/// the moment the reply arrived. What the daemon does not account for
/// is the round trip's self time: transport, codec, router, hand-off.
fn boundary_spans(trace: &Trace, req: u32, w: &Wire, rec: &Record) {
    let (start, encoded, received, decoded) = (
        trace.at(w.start),
        trace.at(w.encoded),
        trace.at(w.received),
        trace.at(w.decoded),
    );
    let root = trace.push(None, req, class_span(rec.step.class), start, decoded);
    trace.push(Some(root), req, "loadgen.encode", start, encoded);
    let trip = trace.push(Some(root), req, "serve.roundtrip", encoded, received);
    trace.push(Some(root), req, "loadgen.decode", received, decoded);
    if let Ok(a) = &rec.answer {
        let service_ns = (a.service_ms * 1e6) as u64;
        let queue_ns = (a.queue_ms * 1e6) as u64;
        let service_start = received.saturating_sub(service_ns);
        if service_ns > 0 {
            trace.push(Some(trip), req, "serve.service", service_start, received);
        }
        if queue_ns > 0 {
            trace.push(
                Some(trip),
                req,
                "serve.queue",
                service_start.saturating_sub(queue_ns),
                service_start,
            );
        }
    }
}

pub fn class_span(class: Class) -> &'static str {
    match class {
        Class::WarmCompile => "request.warm_compile",
        Class::NewCompile => "request.new_compile",
        Class::Search => "request.search",
        Class::Characterize => "request.characterize",
        Class::Flush => "request.flush",
    }
}

/// Peak resident set of this process (the daemon runs in it), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
