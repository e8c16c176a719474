//! Probes of a traced run that are not tied to one request: the
//! daemon's admin plane, the knowledge-base store it wrote, cost-model
//! training on that store, and the two client transports.

use crate::corpus::Program;
use crate::daemon::Daemon;
use crate::runner::Session;
use crate::schedule::Kind;
use crate::stats::median_of;
use ic_kb::KnowledgeBase;
use ic_predict::{select_and_train, TrainingSet};
use ic_search::SequenceSpace;
use ic_serve::proto::{envelope_json, AdminRequest};
use ic_serve::{Client, Request, Response};
use serde::value::Value;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[derive(Debug, Clone, Default)]
pub struct AdminProbe {
    pub flush_ms: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    /// Data-plane requests the router's response memo answered.
    pub memo_hit_share: f64,
    /// Ranked candidates the daemon's predicting searches simulated.
    pub verified_share: f64,
    /// `(verified + predicted) / verified`.
    pub savings_factor: f64,
}

fn u64_at(v: &Value, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_u64()
}

/// `Admin(Metrics)` and, unless the caller measured it elsewhere,
/// `Admin(Flush)` round trips. Daemon counters are read from the
/// metrics JSON by key; a key that is absent leaves its metric at 0.
pub fn admin(session: &mut Session, flush: bool) -> AdminProbe {
    let mut out = AdminProbe::default();
    let client = session.admin();
    if flush {
        let t0 = Instant::now();
        client.flush().expect("flush round trip");
        out.flush_ms = ms_since(t0);
    }
    let t0 = Instant::now();
    let response = client.request(&Request::Admin(AdminRequest::Metrics));
    out.snapshot_ms = ms_since(t0);
    let Ok(response @ Response::Metrics(_)) = &response else {
        return out;
    };
    out.snapshot_bytes = envelope_json(response).len() as f64;
    let Response::Metrics(snapshot) = response else {
        return out;
    };
    let m = snapshot.to_value();
    let served: u64 = [
        "compile_requests",
        "search_requests",
        "characterize_requests",
    ]
    .iter()
    .filter_map(|k| u64_at(&m, &["service", k]))
    .sum();
    let memo_hits: u64 = m
        .get("shards")
        .and_then(Value::as_array)
        .map(|shards| {
            shards
                .iter()
                .filter_map(|s| u64_at(s, &["fast_path_hits"]))
                .sum()
        })
        .unwrap_or(0);
    if served > 0 {
        out.memo_hit_share = memo_hits as f64 / served as f64;
    }
    let verified = u64_at(&m, &["predict", "verified"]).unwrap_or(0);
    let predicted = u64_at(&m, &["predict", "predicted"]).unwrap_or(0);
    if verified > 0 {
        out.verified_share = verified as f64 / (verified + predicted) as f64;
        out.savings_factor = (verified + predicted) as f64 / verified as f64;
    }
    out
}

#[derive(Debug, Clone, Default)]
pub struct KbProbe {
    pub load_ms: f64,
    pub to_json_ms: f64,
    pub save_ms: f64,
    pub merge_us: f64,
    pub bytes: f64,
    /// `TrainingSet::assemble` + `select_and_train` on this store
    /// (`search_predict` only: other stores hold no program records).
    pub train_ms: f64,
}

/// Time the store operations on the knowledge base the daemon wrote.
/// All zero on workloads whose daemon has no store.
pub fn kb(kind: Kind, store: Option<&Path>, dir: &Path, space: &SequenceSpace) -> KbProbe {
    let mut out = KbProbe::default();
    let Some(store) = store.filter(|p| p.exists()) else {
        return out;
    };
    out.bytes = std::fs::metadata(store).map_or(0.0, |m| m.len() as f64);
    let t0 = Instant::now();
    let Ok(kb) = KnowledgeBase::load(store) else {
        return out;
    };
    out.load_ms = ms_since(t0);
    let t0 = Instant::now();
    let json = kb.to_json();
    out.to_json_ms = ms_since(t0);
    std::hint::black_box(json);
    let t0 = Instant::now();
    kb.save(&dir.join("kb-probe.json"))
        .expect("scratch directory is writable");
    out.save_ms = ms_since(t0);
    // Write-through of one context's snapshot into a store that
    // already holds it — what every flush does per engine.
    let mut scratch = kb.clone();
    let merges: Vec<f64> = kb
        .eval_caches
        .iter()
        .map(|rec| {
            let t0 = Instant::now();
            scratch.merge_eval_cache(&rec.context, rec.entries.iter().copied());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.merge_us = median_of(&merges);
    if kind == Kind::SearchPredict {
        let t0 = Instant::now();
        let ts = TrainingSet::assemble(&kb, space);
        std::hint::black_box(select_and_train(&ts, 0x1c));
        out.train_ms = ms_since(t0);
    }
    out
}

#[derive(Debug, Clone, Default)]
pub struct TransportProbe {
    pub framed_us: f64,
    pub http_us: f64,
}

const TRANSPORT_ROUND_TRIPS: usize = 500;

/// Memo-hit round trip of one warm compile over each transport, on a
/// probe daemon that also listens on HTTP (no workload does). A
/// transport that cannot be reached reads 0.
pub fn transports(program: &Program, space: &SequenceSpace, dir: &Path) -> TransportProbe {
    // A sandbox without loopback must not fail the run: probe first.
    let loopback = std::net::TcpListener::bind("127.0.0.1:0").is_ok();
    let daemon = Daemon::spawn(Kind::CompileWarm, &dir.join("probe"), loopback);
    let request = Request::Compile(ic_serve::CompileRequest {
        ctx: program.ctx(0),
        sequence: space
            .decode(0)
            .iter()
            .map(|o| o.name().to_string())
            .collect(),
        emit_ir: false,
    });
    let round_trips = |mut client: Client| -> f64 {
        let mut us = Vec::with_capacity(TRANSPORT_ROUND_TRIPS);
        // The first request computes; the rest hit the memo.
        for i in 0..=TRANSPORT_ROUND_TRIPS {
            let t0 = Instant::now();
            if !matches!(client.request(&request), Ok(Response::Compile(_))) {
                return 0.0;
            }
            if i > 0 {
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        median_of(&us)
    };
    let out = TransportProbe {
        framed_us: round_trips(daemon.connect()),
        http_us: daemon
            .http_uri()
            .and_then(|uri| Client::connect(&uri).ok())
            .map_or(0.0, round_trips),
    };
    daemon.stop();
    out
}
